(* The crash-tolerant campaign orchestrator: the Value wire codec's exact
   round-trip, cooperative deadlines, reseeded retries, graceful
   degradation to error records, journal replay without re-execution,
   torn-tail discard, fingerprint invalidation, and the kill/resume
   byte-identity contract on real lab matrices. *)

module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value
module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Byzlab = Stateless_byzlab.Byzlab
module Simlab = Stateless_simlab.Simlab
module Eventsim = Stateless_core.Eventsim

let int_codec = { Campaign.encode = (fun n -> Value.Int n); decode = Value.to_int }

let tmp_journal () = Filename.temp_file "campaign_test" ".jsonl"

let cell key run : int Campaign.cell = { Campaign.key; config = key; run }

let const_cell key v = cell key (fun ~deadline:_ ~attempt:_ -> v)

(* ------------------------------------------------------------------ *)
(* Value codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_value_roundtrip () =
  let vals =
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 0;
      Value.Int (-42); Value.Int max_int; Value.Int min_int; Value.Float 0.1;
      Value.Float (-1e-300); Value.Float 3.0;
      Value.Float 1.7976931348623157e308; Value.Float (0x1p-1074);
      Value.String ""; Value.String "plain";
      Value.String "quotes\" slash\\ newline\n tab\t \xc3\xa9 \x00";
      Value.List []; Value.List [ Value.Int 1; Value.Null; Value.Float 2.5 ];
      Value.Obj [];
      Value.Obj
        [
          ("k", Value.Int 1); ("s", Value.String "v");
          ("l", Value.List [ Value.Bool false; Value.Obj [] ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Value.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip of %s" s)
        true
        (Value.parse s = Some v))
    vals

let test_value_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %S fails" s)
        true
        (Value.parse s = None))
    [ ""; "1 x"; "{\"a\":[1,"; "[1,2"; "\"unterminated"; "nul"; "{]" ];
  (* Non-finite floats must be rejected at write time, not corrupt the
     journal. *)
  List.iter
    (fun f ->
      try
        ignore (Value.to_string (Value.Float f));
        Alcotest.fail "non-finite float accepted"
      with Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_value_string_edge_cases () =
  (* Every byte value, in one string: OCaml escaping must round-trip
     raw non-ASCII bytes, control characters and NUL byte-exactly. *)
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check bool)
    "all 256 bytes round-trip" true
    (Value.parse (Value.to_string (Value.String all_bytes))
    = Some (Value.String all_bytes));
  (* Multi-byte UTF-8 sequences are opaque bytes to the codec. *)
  let utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x90\xab" in
  Alcotest.(check bool)
    "utf-8 round-trips" true
    (Value.parse (Value.to_string (Value.String utf8))
    = Some (Value.String utf8));
  (* Escape-looking content inside keys and values. *)
  let tricky = Value.Obj [ ("a\"b\\c", Value.String "{\"x\":[1,\\n]}") ] in
  Alcotest.(check bool)
    "escape-heavy object round-trips" true
    (Value.parse (Value.to_string tricky) = Some tricky)

let test_value_deep_nesting () =
  let deep = ref (Value.Int 7) in
  for _ = 1 to 1000 do
    deep := Value.List [ !deep ]
  done;
  let s = Value.to_string !deep in
  Alcotest.(check bool)
    "1000-deep list round-trips" true
    (Value.parse s = Some !deep);
  let wide =
    Value.Obj
      (List.init 500 (fun i ->
           (Printf.sprintf "k%d" i, Value.List [ Value.Int i; Value.Null ])))
  in
  Alcotest.(check bool)
    "wide object round-trips" true
    (Value.parse (Value.to_string wide) = Some wide)

let test_value_oversized_numbers_rejected () =
  (* Ints beyond the native range cannot round-trip; the parser must
     reject them explicitly rather than wrap or truncate. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %S rejected" s)
        true
        (Value.parse s = None))
    [
      "9223372036854775808" (* max_int + 1 *);
      "-9223372036854775809" (* min_int - 1 *);
      "123456789012345678901234567890";
      (* Floats that overflow to infinity are unserializable, so the
         parser rejects them too. *)
      "1e999";
      "-1e999";
    ];
  (* The extreme representable values still round-trip. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "extreme value round-trips" true
        (Value.parse (Value.to_string v) = Some v))
    [ Value.Int max_int; Value.Int min_int; Value.Float 1.7976931348623157e308 ]

(* ------------------------------------------------------------------ *)
(* The shared seed-block runner and recovery summary                   *)
(* ------------------------------------------------------------------ *)

(* A seed block over a synthetic measurement, recording every deadline
   poll and every fresh context. *)
let traced_block ?(deadline = fun _ -> false) ~seeds ~seed0 ~attempt () =
  let polls = ref 0 and freshes = ref 0 in
  let out =
    Campaign.seed_block ~seeds ~seed0 ~attempt
      ~deadline:(fun () ->
        incr polls;
        deadline !polls)
      ~fresh:(fun () ->
        incr freshes;
        fun seed -> (seed * 31) + 7)
  in
  (out, !polls, !freshes)

let test_seed_block_polls () =
  (* Chaos clock decisions are indexed by how often the deadline is
     read, so the poll count is part of storm replay: one per seed. *)
  List.iter
    (fun seeds ->
      let out, p, f = traced_block ~seeds ~seed0:5 ~attempt:0 () in
      let what = Printf.sprintf "seeds %d" seeds in
      Alcotest.(check int) (what ^ ": polls") seeds p;
      Alcotest.(check int) (what ^ ": one fresh context") 1 f;
      Alcotest.(check (array int))
        (what ^ ": results")
        (Array.init seeds (fun j -> ((5 + j) * 31) + 7))
        out)
    [ 7; 1; 0 ]

let test_seed_block_deadline_stops () =
  (* The second poll expires: one seed was measured. *)
  match
    traced_block ~deadline:(fun n -> n >= 2) ~seeds:7 ~seed0:1 ~attempt:0 ()
  with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Campaign.Deadline_exceeded -> ()

let test_seed_block_reseeds () =
  List.iter
    (fun attempt ->
      let out, _, _ = traced_block ~seeds:3 ~seed0:5 ~attempt () in
      let first = 5 + (attempt * Campaign.reseed_stride) in
      Alcotest.(check (array int))
        (Printf.sprintf "attempt %d" attempt)
        (Array.init 3 (fun j -> ((first + j) * 31) + 7))
        out)
    [ 1; 2 ]

(* The nearest-rank formula every lab used before the shared summary. *)
let old_percentile sorted q =
  let k = Array.length sorted in
  if k = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float k)) - 1 in
    sorted.(max 0 (min (k - 1) rank))

let test_summary () =
  let zero =
    { Campaign.recovered = 0; mean = 0.; p50 = 0; p95 = 0; worst = 0 }
  in
  Alcotest.(check bool) "empty row" true (Campaign.summary [||] = zero);
  Alcotest.(check bool)
    "no recovery" true
    (Campaign.summary [| None; None |] = zero);
  Alcotest.(check bool)
    "singleton" true
    (Campaign.summary [| Some 5 |]
    = { Campaign.recovered = 1; mean = 5.; p50 = 5; p95 = 5; worst = 5 });
  (* Twenty recovery times, unsorted, with misses interleaved. *)
  let times = List.init 20 (fun i -> (i * 37) mod 23) in
  let row =
    Array.of_list (List.concat_map (fun t -> [ Some t; None ]) times)
  in
  let sorted = Array.of_list (List.sort compare times) in
  let s = Campaign.summary row in
  Alcotest.(check int) "recovered" 20 s.Campaign.recovered;
  Alcotest.(check (float 0.)) "mean"
    (float (List.fold_left ( + ) 0 times) /. 20.) s.Campaign.mean;
  Alcotest.(check int) "p50" (old_percentile sorted 0.5) s.Campaign.p50;
  Alcotest.(check int) "p95" (old_percentile sorted 0.95) s.Campaign.p95;
  Alcotest.(check int) "worst" sorted.(19) s.Campaign.worst;
  let one = Campaign.summary [| Some 5 |] in
  Alcotest.(check int) "singleton p50" (old_percentile [| 5 |] 0.5) one.p50;
  Alcotest.(check int) "singleton p95" (old_percentile [| 5 |] 0.95) one.p95;
  (* Seven times: q * k is fractional, so the rank's rounding shows. *)
  let seven = [| 9; 2; 7; 4; 1; 8; 3 |] in
  let s = Campaign.summary (Array.map Option.some seven) in
  let sorted = Array.copy seven in
  Array.sort compare sorted;
  Alcotest.(check int) "seven p50" (old_percentile sorted 0.5) s.Campaign.p50;
  Alcotest.(check int) "seven p50 is the 4th" 4 s.Campaign.p50;
  Alcotest.(check int) "seven p95" (old_percentile sorted 0.95) s.Campaign.p95

(* ------------------------------------------------------------------ *)
(* Robustness policy                                                   *)
(* ------------------------------------------------------------------ *)

let test_deadline_timeout () =
  (* cell_deadline = tiny: the polling cell reads an expired deadline and
     raises; the non-polling cell completes. The campaign completes with
     a timeout record, not an exception. *)
  let cells =
    [|
      cell "t/slow" (fun ~deadline ~attempt:_ ->
          if deadline () then raise Campaign.Deadline_exceeded;
          42);
      const_cell "t/fast" 7;
    |]
  in
  let policy =
    { Campaign.default_policy with Campaign.cell_deadline = Some 1e-9 }
  in
  let o = Campaign.run ~policy ~codec:int_codec cells in
  Alcotest.(check int) "one ok" 1 o.Campaign.counts.Campaign.ok;
  Alcotest.(check int) "one timeout" 1 o.Campaign.counts.Campaign.timeout;
  Alcotest.(check int) "no error" 0 o.Campaign.counts.Campaign.error;
  Alcotest.(check bool) "timeout has no result" true
    (o.Campaign.records.(0).Campaign.result = None);
  Alcotest.(check bool) "timeout status" true
    (o.Campaign.records.(0).Campaign.status = Campaign.Timeout);
  Alcotest.(check bool) "fast cell kept its result" true
    (o.Campaign.records.(1).Campaign.result = Some 7)

let test_retry_succeeds () =
  let attempts_seen = ref [] in
  let cells =
    [|
      cell "r/flaky" (fun ~deadline:_ ~attempt ->
          attempts_seen := attempt :: !attempts_seen;
          if attempt = 0 then failwith "transient" else 100 + attempt);
    |]
  in
  let policy = { Campaign.default_policy with Campaign.retries = 2 } in
  let o = Campaign.run ~policy ~codec:int_codec cells in
  Alcotest.(check (list int)) "attempts 0 then 1" [ 0; 1 ]
    (List.rev !attempts_seen);
  Alcotest.(check bool) "second attempt's result" true
    (o.Campaign.records.(0).Campaign.result = Some 101);
  Alcotest.(check int) "two executions recorded" 2
    o.Campaign.records.(0).Campaign.attempts;
  Alcotest.(check int) "counted ok" 1 o.Campaign.counts.Campaign.ok

let test_error_degrades () =
  (* A cell that fails every attempt is retired as a structured error;
     the other cells and the campaign itself still complete. *)
  let cells =
    [|
      const_cell "e/a" 1;
      cell "e/poison" (fun ~deadline:_ ~attempt:_ -> failwith "poisoned");
      const_cell "e/b" 2;
    |]
  in
  let policy = { Campaign.default_policy with Campaign.retries = 1 } in
  let o = Campaign.run ~policy ~codec:int_codec cells in
  Alcotest.(check int) "two ok" 2 o.Campaign.counts.Campaign.ok;
  Alcotest.(check int) "one error" 1 o.Campaign.counts.Campaign.error;
  (match o.Campaign.records.(1).Campaign.status with
  | Campaign.Error msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error message kept" true (contains msg "poisoned")
  | _ -> Alcotest.fail "poisoned cell not an error record");
  Alcotest.(check int) "both retries burned" 2
    o.Campaign.records.(1).Campaign.attempts;
  Alcotest.(check bool) "records stay in matrix order" true
    (o.Campaign.records.(0).Campaign.result = Some 1
    && o.Campaign.records.(2).Campaign.result = Some 2)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let counting_cells execs n =
  Array.init n (fun i ->
      {
        Campaign.key = Printf.sprintf "j/c%d" i;
        config = Printf.sprintf "cfg%d" i;
        run =
          (fun ~deadline:_ ~attempt:_ ->
            incr execs;
            i * i);
      })

let test_resume_replays_without_reexecution () =
  let j = tmp_journal () in
  let execs = ref 0 in
  let policy = { Campaign.default_policy with Campaign.journal = Some j } in
  let o1 = Campaign.run ~policy ~codec:int_codec (counting_cells execs 5) in
  Alcotest.(check int) "first pass executes all" 5 !execs;
  let o2 =
    Campaign.run
      ~policy:{ policy with Campaign.resume = true }
      ~codec:int_codec (counting_cells execs 5)
  in
  Alcotest.(check int) "resume executes nothing" 5 !execs;
  Alcotest.(check int) "all replayed" 5 o2.Campaign.counts.Campaign.replayed;
  Alcotest.(check int) "all ok" 5 o2.Campaign.counts.Campaign.ok;
  Alcotest.(check bool) "merged results identical" true
    (Array.map (fun r -> r.Campaign.result) o1.Campaign.records
    = Array.map (fun r -> r.Campaign.result) o2.Campaign.records);
  Alcotest.(check bool) "replayed flag set" true
    (Array.for_all
       (fun (r : int Campaign.record) -> r.Campaign.replayed)
       o2.Campaign.records);
  Sys.remove j

let test_torn_tail_discarded () =
  let j = tmp_journal () in
  let execs = ref 0 in
  let policy = { Campaign.default_policy with Campaign.journal = Some j } in
  let o1 = Campaign.run ~policy ~codec:int_codec (counting_cells execs 4) in
  (* Tear the last record: drop its newline and a slice of its bytes, as
     a crash mid-append would. *)
  let ic = open_in_bin j in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin j in
  output_string oc (String.sub s 0 (String.length s - 10));
  close_out oc;
  let o2 =
    Campaign.run
      ~policy:{ policy with Campaign.resume = true }
      ~codec:int_codec (counting_cells execs 4)
  in
  Alcotest.(check int) "exactly the torn cell re-ran" 5 !execs;
  Alcotest.(check int) "three replayed" 3 o2.Campaign.counts.Campaign.replayed;
  Alcotest.(check int) "all ok" 4 o2.Campaign.counts.Campaign.ok;
  Alcotest.(check bool) "merge identical to uninterrupted run" true
    (Array.map (fun r -> r.Campaign.result) o1.Campaign.records
    = Array.map (fun r -> r.Campaign.result) o2.Campaign.records);
  Sys.remove j

let test_fingerprint_mismatch_reruns () =
  let j = tmp_journal () in
  let execs = ref 0 in
  let mk config =
    [|
      {
        Campaign.key = "f/a";
        config;
        run =
          (fun ~deadline:_ ~attempt:_ ->
            incr execs;
            9);
      };
    |]
  in
  let policy = { Campaign.default_policy with Campaign.journal = Some j } in
  ignore (Campaign.run ~policy ~codec:int_codec (mk "v1"));
  let o =
    Campaign.run
      ~policy:{ policy with Campaign.resume = true }
      ~codec:int_codec (mk "v2")
  in
  Alcotest.(check int) "config change forces re-execution" 2 !execs;
  Alcotest.(check int) "nothing replayed" 0 o.Campaign.counts.Campaign.replayed;
  (* Same config again: the re-run's appended record wins (last per key). *)
  let o2 =
    Campaign.run
      ~policy:{ policy with Campaign.resume = true }
      ~codec:int_codec (mk "v2")
  in
  Alcotest.(check int) "matching record replays" 2 !execs;
  Alcotest.(check int) "replayed now" 1 o2.Campaign.counts.Campaign.replayed;
  Sys.remove j

let test_duplicate_keys_rejected () =
  try
    ignore
      (Campaign.run ~codec:int_codec [| const_cell "d/x" 1; const_cell "d/x" 2 |]);
    Alcotest.fail "duplicate keys accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Lab matrices: kill/resume byte-identity                             *)
(* ------------------------------------------------------------------ *)

let test_faultlab_kill_resume_identity () =
  let sc = Faultlab.example1 ~n:3 () in
  let fractions = [ 0.25; 0.5; 1.0 ] and seeds = 5 and max_steps = 2_000 in
  let clean = Faultlab.run ~fractions ~seeds ~max_steps sc in
  let j = tmp_journal () in
  (* Simulate a campaign killed after two cells: journal only a prefix of
     the matrix, then resume the full matrix against that journal. *)
  let cells = Faultlab.cells ~fractions ~seeds ~max_steps sc in
  let partial = Array.sub cells 0 2 in
  ignore
    (Campaign.run
       ~policy:{ Campaign.default_policy with Campaign.journal = Some j }
       ~codec:Faultlab.codec partial);
  let resumed, counts =
    Faultlab.run_matrix ~fractions ~seeds ~max_steps
      ~policy:
        {
          Campaign.default_policy with
          Campaign.journal = Some j;
          resume = true;
        }
      sc
  in
  Alcotest.(check int) "prefix replayed" 2 counts.Campaign.replayed;
  Alcotest.(check int) "all cells ok" 3 counts.Campaign.ok;
  Alcotest.(check bool) "killed-and-resumed campaign identical" true
    (resumed = clean);
  Sys.remove j

let test_faultlab_degraded_row () =
  (* A poisoned journal is not needed to exercise degradation: a zero
     deadline times every fraction row out, yet the campaign completes
     with deterministic all-degraded rows. *)
  let sc = Faultlab.example1 ~n:3 () in
  let fractions = [ 0.5; 1.0 ] in
  let degraded, counts =
    Faultlab.run_matrix ~fractions ~seeds:4 ~max_steps:2_000
      ~policy:
        { Campaign.default_policy with Campaign.cell_deadline = Some 0.0 }
      sc
  in
  Alcotest.(check int) "every row timed out" 2 counts.Campaign.timeout;
  Alcotest.(check int) "no ok rows" 0 counts.Campaign.ok;
  List.iter
    (fun (s : Faultlab.fraction_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "fraction %g degrades to zero recoveries"
           s.Faultlab.fraction)
        0 s.Faultlab.recovered)
    degraded.Faultlab.stats

let sim_instance () =
  Simlab.build
    (Simlab.Contagion { threshold = 0.5; seed_frac = 0.1 })
    Simlab.Ring ~graph_seed:7 ~nodes:64 ~rate:1.0 ~latency:(Eventsim.Exp 0.5)
    ~faults:{ Eventsim.no_faults with Eventsim.loss = 0.1; dup = 0.05 }

let test_sim_matrix_identity () =
  (* The orchestrated path runs through run_poll's horizon slices; it
     must be bit-identical to the unsliced campaign. *)
  let inst = sim_instance () in
  let runs = 4 and horizon = 8.0 in
  let base = Simlab.campaign inst ~seed0:1 ~runs ~horizon in
  let results, counts = Simlab.run_matrix inst ~seed0:1 ~runs ~horizon in
  Alcotest.(check int) "all ok" runs counts.Campaign.ok;
  Alcotest.(check bool) "sliced = unsliced, per seed" true
    (results = Array.map Option.some base)

let test_sim_matrix_kill_resume () =
  let inst = sim_instance () in
  let runs = 4 and horizon = 6.0 in
  let clean, _ = Simlab.run_matrix inst ~seed0:1 ~runs ~horizon in
  let j = tmp_journal () in
  let cells = Simlab.cells inst ~seed0:1 ~runs ~horizon in
  ignore
    (Campaign.run
       ~policy:{ Campaign.default_policy with Campaign.journal = Some j }
       ~codec:Simlab.codec
       (Array.sub cells 0 2));
  let resumed, counts =
    Simlab.run_matrix
      ~policy:
        {
          Campaign.default_policy with
          Campaign.journal = Some j;
          resume = true;
        }
      inst ~seed0:1 ~runs ~horizon
  in
  Alcotest.(check int) "two trajectories replayed" 2 counts.Campaign.replayed;
  Alcotest.(check bool) "kill/resume identical" true (resumed = clean);
  Sys.remove j

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_campaign"
    [
      ( "value",
        [
          Alcotest.test_case "round-trip" `Quick test_value_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_value_rejects_garbage;
          Alcotest.test_case "string edge cases" `Quick
            test_value_string_edge_cases;
          Alcotest.test_case "deep nesting" `Quick test_value_deep_nesting;
          Alcotest.test_case "oversized numbers rejected" `Quick
            test_value_oversized_numbers_rejected;
        ] );
      ( "seed block",
        [
          Alcotest.test_case "one poll per seed or block" `Quick
            test_seed_block_polls;
          Alcotest.test_case "expired deadline stops the block" `Quick
            test_seed_block_deadline_stops;
          Alcotest.test_case "retry reseeds the block" `Quick
            test_seed_block_reseeds;
          Alcotest.test_case "recovery summary" `Quick test_summary;
        ] );
      ( "policy",
        [
          Alcotest.test_case "deadline -> timeout" `Quick
            test_deadline_timeout;
          Alcotest.test_case "retry succeeds" `Quick test_retry_succeeds;
          Alcotest.test_case "error degrades gracefully" `Quick
            test_error_degrades;
          Alcotest.test_case "duplicate keys rejected" `Quick
            test_duplicate_keys_rejected;
        ] );
      ( "journal",
        [
          Alcotest.test_case "resume replays without re-execution" `Quick
            test_resume_replays_without_reexecution;
          Alcotest.test_case "torn tail discarded and re-run" `Quick
            test_torn_tail_discarded;
          Alcotest.test_case "fingerprint mismatch re-runs" `Quick
            test_fingerprint_mismatch_reruns;
        ] );
      ( "labs",
        [
          Alcotest.test_case "faultlab kill/resume identity" `Quick
            test_faultlab_kill_resume_identity;
          Alcotest.test_case "faultlab degraded rows" `Quick
            test_faultlab_degraded_row;
          Alcotest.test_case "sim sliced = unsliced" `Quick
            test_sim_matrix_identity;
          Alcotest.test_case "sim kill/resume identity" `Quick
            test_sim_matrix_kill_resume;
        ] );
    ]
