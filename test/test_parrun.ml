(* The persistent domain pool: chunk coverage, exception propagation,
   nested-call inlining, and the bit-identical-across-domain-counts
   contract all the way up through the checker and faultlab campaigns. *)

module Protocol = Stateless_core.Protocol
module Parrun = Stateless_core.Parrun
module Pool = Stateless_core.Pool
module Clique_example = Stateless_core.Clique_example
module Checker = Stateless_checker.Checker
module Faultlab = Stateless_faultlab.Faultlab

let domain_counts = [ 1; 2; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* Pool.run                                                            *)
(* ------------------------------------------------------------------ *)

let test_pool_covers_all_chunks () =
  List.iter
    (fun domains ->
      List.iter
        (fun nchunks ->
          let hits = Array.make (max nchunks 1) 0 in
          Pool.run ~domains ~nchunks (fun ~slot:_ chunk ->
              hits.(chunk) <- hits.(chunk) + 1);
          for c = 0 to nchunks - 1 do
            Alcotest.(check int)
              (Printf.sprintf "domains=%d nchunks=%d chunk %d ran once"
                 domains nchunks c)
              1 hits.(c)
          done)
        [ 1; 2; 7; 40 ])
    domain_counts

let test_pool_slots_compact () =
  (* Every chunk must observe a slot in [0, domains); which slots actually
     claim chunks is scheduling-dependent (fast workers can drain a small
     job before the submitter gets a chunk), so only the range is
     asserted. *)
  let domains = 4 and nchunks = 32 in
  let out_of_range = Atomic.make 0 in
  let claimed = Atomic.make 0 in
  Pool.run ~domains ~nchunks (fun ~slot _chunk ->
      if slot < 0 || slot >= domains then Atomic.incr out_of_range;
      Atomic.incr claimed);
  Alcotest.(check int) "all slots in [0, domains)" 0 (Atomic.get out_of_range);
  Alcotest.(check int) "every chunk claimed" nchunks (Atomic.get claimed)

exception Boom of int

let test_pool_exception_propagates () =
  (try
     Pool.run ~domains:4 ~nchunks:16 (fun ~slot:_ chunk ->
         if chunk = 11 then raise (Boom chunk));
     Alcotest.fail "exception swallowed"
   with Boom 11 -> ());
  (* The pool must stay usable after a failed job. *)
  let total = ref 0 in
  let mu = Mutex.create () in
  Pool.run ~domains:4 ~nchunks:16 (fun ~slot:_ chunk ->
      Mutex.protect mu (fun () -> total := !total + chunk));
  Alcotest.(check int) "pool reusable after failure" 120 !total

(* Two top-level submitters racing from separate domains: the single job
   slot must serialize them (not interleave chunk claims across jobs), and
   both must see complete, correct results. Regression for the concurrent
   submission race. *)
let test_pool_concurrent_submitters () =
  for _ = 1 to 5 do
    let submit mult =
      Domain.spawn (fun () ->
          Parrun.map ~domains:3 ~ctx:(fun () -> ()) 101 (fun _ i -> mult * i))
    in
    let a = submit 3 and b = submit 7 in
    let ra = Domain.join a and rb = Domain.join b in
    Alcotest.(check (array int))
      "submitter a complete"
      (Array.init 101 (fun i -> 3 * i))
      ra;
    Alcotest.(check (array int))
      "submitter b complete"
      (Array.init 101 (fun i -> 7 * i))
      rb
  done

let test_pool_nested_runs_inline () =
  let inner_saw_worker = ref false in
  Pool.run ~domains:3 ~nchunks:3 (fun ~slot:_ _chunk ->
      if Pool.in_worker () then begin
        (* Nested call: must run inline on this domain, not deadlock. *)
        let hits = Array.make 4 0 in
        Pool.run ~domains:3 ~nchunks:4 (fun ~slot chunk ->
            if slot <> 0 then Alcotest.fail "nested run left its domain";
            hits.(chunk) <- hits.(chunk) + 1);
        if Array.for_all (fun h -> h = 1) hits then inner_saw_worker := true
      end);
  Alcotest.(check bool) "nested Pool.run completed inline" true
    !inner_saw_worker;
  Alcotest.(check bool) "in_worker clear outside jobs" false (Pool.in_worker ())

exception Boom2 of int

(* The drain contract: a raising chunk must not strand the job's other
   chunks — they all still execute, the first exception is re-raised
   after the drain, and the pool survives any number of failed jobs.
   Regression for the worker-death drain bug (workers parked on a dead
   job's queue left later jobs starved). *)
let test_pool_drains_after_failure () =
  List.iter
    (fun domains ->
      let nchunks = 16 in
      let ran = Atomic.make 0 in
      (try
         Pool.run ~domains ~nchunks (fun ~slot:_ chunk ->
             if chunk = 2 then raise (Boom chunk);
             Atomic.incr ran);
         Alcotest.fail "first exception swallowed"
       with Boom 2 -> ());
      Alcotest.(check int)
        (Printf.sprintf "all other chunks drained (domains=%d)" domains)
        (nchunks - 1) (Atomic.get ran);
      (* A second, distinct failing job: the pool must not have retained
         state from the first failure. *)
      (try
         Pool.run ~domains ~nchunks (fun ~slot:_ chunk ->
             if chunk = 9 then raise (Boom2 chunk));
         Alcotest.fail "second exception swallowed"
       with Boom2 9 -> ());
      (* And after two failed jobs, a clean job still covers everything. *)
      let total = ref 0 in
      let mu = Mutex.create () in
      Pool.run ~domains ~nchunks (fun ~slot:_ chunk ->
          Mutex.protect mu (fun () -> total := !total + chunk));
      Alcotest.(check int)
        (Printf.sprintf "pool reusable after two failures (domains=%d)" domains)
        120 !total)
    [ 1; 4 ]

(* A nested (in-worker, inline) run follows the same drain contract. *)
let test_pool_nested_inline_drains () =
  let checked = Atomic.make false in
  Pool.run ~domains:3 ~nchunks:3 (fun ~slot:_ _chunk ->
      if Pool.in_worker () && not (Atomic.exchange checked true) then begin
        let ran = Atomic.make 0 in
        (try
           Pool.run ~domains:3 ~nchunks:4 (fun ~slot:_ chunk ->
               if chunk = 1 then raise (Boom chunk);
               Atomic.incr ran);
           Alcotest.fail "nested exception swallowed"
         with Boom 1 -> ());
        if Atomic.get ran <> 3 then
          Alcotest.fail "nested inline run did not drain remaining chunks"
      end);
  Alcotest.(check bool) "nested drain exercised" true (Atomic.get checked);
  (* The outer pool took no damage from the nested failure. *)
  let total = ref 0 in
  let mu = Mutex.create () in
  Pool.run ~domains:3 ~nchunks:16 (fun ~slot:_ chunk ->
      Mutex.protect mu (fun () -> total := !total + chunk));
  Alcotest.(check int) "outer pool intact" 120 !total

(* ------------------------------------------------------------------ *)
(* Parrun.map on the pool                                              *)
(* ------------------------------------------------------------------ *)

let test_map_identical_across_domains () =
  let f _ i = (i * 31) lxor (i lsl 3) in
  let expect = Parrun.map ~domains:1 ~ctx:(fun () -> ()) 257 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expect
        (Parrun.map ~domains ~ctx:(fun () -> ()) 257 f))
    domain_counts

let test_map_exception_propagates () =
  try
    ignore
      (Parrun.map ~domains:4 ~ctx:(fun () -> ()) 100 (fun _ i ->
           if i = 63 then raise (Boom i) else i));
    Alcotest.fail "exception swallowed"
  with Boom 63 -> ()

let test_map_nested_in_map () =
  (* An inner Parrun.map inside an outer one must run inline in the worker
     and still produce the right values. *)
  let outer =
    Parrun.map ~domains:3 ~ctx:(fun () -> ()) 9 (fun _ i ->
        let inner =
          Parrun.map ~domains:3 ~ctx:(fun () -> ()) 5 (fun _ j -> i + j)
        in
        Array.fold_left ( + ) 0 inner)
  in
  let expect = Array.init 9 (fun i -> (5 * i) + 10) in
  Alcotest.(check (array int)) "nested map values" expect outer

(* ------------------------------------------------------------------ *)
(* Cross-layer determinism                                             *)
(* ------------------------------------------------------------------ *)

let test_checker_inside_parrun () =
  (* A parallel checker call nested inside a Parrun.map must fall back to
     sequential expansion (no deadlock) and give the same verdicts as the
     same calls made at top level. *)
  let p = Clique_example.make 4 in
  let input = Clique_example.input 4 in
  let verdict_name r =
    match Checker.check_label ~domains:4 p ~input ~r ~max_states:200_000 with
    | Checker.Stabilizing -> "stabilizing"
    | Checker.Oscillating _ -> "oscillating"
    | Checker.Too_large _ -> "too-large"
  in
  let expect = Array.init 3 (fun i -> verdict_name (i + 1)) in
  let got =
    Parrun.map ~domains:3 ~ctx:(fun () -> ()) 3 (fun _ i ->
        verdict_name (i + 1))
  in
  Alcotest.(check (array string)) "verdicts match top-level" expect got

let campaign_fingerprint (c : Faultlab.campaign) =
  c.Faultlab.stats
  |> List.map (fun s ->
         Printf.sprintf "%g:%d:%d:%.6f:%d:%d:%d" s.Faultlab.fraction
           s.Faultlab.runs s.Faultlab.recovered s.Faultlab.mean s.Faultlab.p50
           s.Faultlab.p95 s.Faultlab.worst)
  |> String.concat "|"

let test_faultlab_campaign_across_domains () =
  let scenario = Faultlab.example1 ~n:3 () in
  let run domains =
    campaign_fingerprint
      (Faultlab.run ~fractions:[ 0.25; 1.0 ] ~seeds:6 ~max_steps:2_000
         ~domains scenario)
  in
  let expect = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d" domains)
        expect (run domains))
    domain_counts

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_parrun"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all chunks" `Quick
            test_pool_covers_all_chunks;
          Alcotest.test_case "slots compact" `Quick test_pool_slots_compact;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "nested runs inline" `Quick
            test_pool_nested_runs_inline;
          Alcotest.test_case "drains after failure" `Quick
            test_pool_drains_after_failure;
          Alcotest.test_case "nested inline drains" `Quick
            test_pool_nested_inline_drains;
          Alcotest.test_case "concurrent submitters" `Quick
            test_pool_concurrent_submitters;
        ] );
      ( "map",
        [
          Alcotest.test_case "identical across domains" `Quick
            test_map_identical_across_domains;
          Alcotest.test_case "exception propagates" `Quick
            test_map_exception_propagates;
          Alcotest.test_case "nested map" `Quick test_map_nested_in_map;
        ] );
      ( "cross-layer",
        [
          Alcotest.test_case "checker inside Parrun" `Quick
            test_checker_inside_parrun;
          Alcotest.test_case "faultlab campaign deterministic" `Quick
            test_faultlab_campaign_across_domains;
        ] );
    ]
