(* Differential suite: the packed {!Kernel} against the boxed {!Engine} on
   randomized protocols, inputs and schedules, for every evaluation tier
   (direct table / sparse memo / evicting two-slot memo / raw scratch),
   with the packed entry points checked against the boxed ones on one
   reused kernel; plus {!Parrun} determinism and the {!Engine.trace}
   double-buffering regression. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Parrun = Stateless_core.Parrun
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Fault = Stateless_core.Fault
module Clique_example = Stateless_core.Clique_example
module Proptest = Stateless_core.Proptest
module Builders = Stateless_graph.Builders

(* ------------------------------------------------------------------ *)
(* Random protocol generator (shared, see lib/core/proptest.ml)        *)
(* ------------------------------------------------------------------ *)

(* This suite uses Proptest's default RNG constants (salt 0x5ca1ab1e,
   graph seed 7*seed+1, names "rand<seed>"). *)
let random_protocol seed = Proptest.random_protocol seed
let random_config = Proptest.random_config
let random_active = Proptest.random_active
let schedules_for seed n = Proptest.schedules_for seed n

(* All three kernel tiers for one protocol, plus a memo of two slots where
   nearly every lookup evicts: the choice must be observably invisible. *)
let tiers p ~input =
  [
    ("table", fun () -> Kernel.create p ~input);
    ("memo", fun () -> Kernel.create ~max_table_words:0 p ~input);
    ( "evict",
      fun () -> Kernel.create ~max_table_words:0 ~max_memo_entries:2 p ~input );
    ( "raw",
      fun () -> Kernel.create ~max_table_words:0 ~max_memo_entries:0 p ~input );
  ]

let kernels p ~input =
  List.map (fun (tier, mk) -> (tier, mk ())) (tiers p ~input)

(* ------------------------------------------------------------------ *)
(* Equality of results                                                 *)
(* ------------------------------------------------------------------ *)

let config_eq = Proptest.config_eq

let outcome_eq p a b =
  match (a, b) with
  | ( Engine.Stabilized { rounds = r1; config = c1 },
      Engine.Stabilized { rounds = r2; config = c2 } ) ->
      r1 = r2 && config_eq p c1 c2
  | ( Engine.Oscillating { entered = e1; period = q1 },
      Engine.Oscillating { entered = e2; period = q2 } ) ->
      e1 = e2 && q1 = q2
  | Engine.Exhausted c1, Engine.Exhausted c2 -> config_eq p c1 c2
  | _ -> false

let settled_eq p a b =
  match (a, b) with
  | None, None -> true
  | Some s1, Some s2 ->
      s1.Engine.settle_time = s2.Engine.settle_time
      && s1.Engine.settled_outputs = s2.Engine.settled_outputs
      && config_eq p s1.Engine.horizon_config s2.Engine.horizon_config
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Differential tests                                                  *)
(* ------------------------------------------------------------------ *)

let trials = 30

let test_step_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    for _ = 1 to 5 do
      let config = random_config p st in
      let active = random_active n st in
      let expect = Engine.step p ~input config ~active in
      List.iter
        (fun (tier, k) ->
          let got = Kernel.step k config ~active in
          if not (config_eq p expect got) then
            Alcotest.failf "step mismatch (seed %d, tier %s)" seed tier)
        ks
    done
  done

let test_run_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let steps = 1 + Random.State.int st 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.run k ~init ~schedule ~steps in
            if not (config_eq p expect got) then
              Alcotest.failf "run mismatch (seed %d, tier %s, %s)" seed tier
                schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

let test_run_until_stable_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let max_steps = 60 in
        let expect = Engine.run_until_stable p ~input ~init ~schedule ~max_steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.run_until_stable k ~init ~schedule ~max_steps in
            if not (outcome_eq p expect got) then
              Alcotest.failf "run_until_stable mismatch (seed %d, tier %s, %s)"
                seed tier schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

let test_settle_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let max_steps = 80 in
        let expect = Engine.settle p ~input ~init ~schedule ~max_steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.settle k ~init ~schedule ~max_steps in
            if not (settled_eq p expect got) then
              Alcotest.failf "settle mismatch (seed %d, tier %s, %s)" seed tier
                schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

(* A kernel instance is reused across many runs in campaigns; make sure
   state from one run cannot leak into the next. *)
let test_kernel_reuse () =
  let p, input, st = random_protocol 77 in
  let n = Protocol.num_nodes p in
  let k = Kernel.create p ~input in
  let schedule = Schedule.synchronous n in
  let init = random_config p st in
  let first = Kernel.settle k ~init ~schedule ~max_steps:80 in
  for _ = 1 to 3 do
    let other = random_config p st in
    ignore (Kernel.run_until_stable k ~init:other ~schedule ~max_steps:40)
  done;
  let again = Kernel.settle k ~init ~schedule ~max_steps:80 in
  Alcotest.(check bool) "settle is reproducible on a reused kernel" true
    (settled_eq p first again)

(* One kernel driven through interleaved boxed and packed calls must give
   what a fresh kernel gives for each call: no buffer, visit table, memo
   slot or output history may carry state from one call into the next. *)
let test_interleaved_calls () =
  let verdict_eq a b =
    match (a, b) with
    | Kernel.Stabilized r1, Engine.Stabilized { rounds = r2; _ } -> r1 = r2
    | ( Kernel.Oscillating { entered = e1; period = q1 },
        Engine.Oscillating { entered = e2; period = q2 } ) ->
        e1 = e2 && q1 = q2
    | Kernel.Exhausted, Engine.Exhausted _ -> true
    | _ -> false
  in
  for seed = 1 to 12 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p and m = Protocol.num_edges p in
    List.iter
      (fun (tier, fresh) ->
        let shared = fresh () in
        let fail op =
          Alcotest.failf "%s mismatch (seed %d, tier %s)" op seed tier
        in
        List.iter
          (fun schedule ->
            for op = 0 to 11 do
              let init = random_config p st in
              let labels = Array.make m 0 and outputs = Array.make n 0 in
              Kernel.load shared init ~labels ~outputs;
              match op mod 6 with
              | 0 ->
                  if
                    not
                      (settled_eq p
                         (Kernel.settle (fresh ()) ~init ~schedule ~max_steps:60)
                         (Kernel.settle shared ~init ~schedule ~max_steps:60))
                  then fail "settle"
              | 1 ->
                  if
                    not
                      (outcome_eq p
                         (Kernel.run_until_stable (fresh ()) ~init ~schedule
                            ~max_steps:60)
                         (Kernel.run_until_stable shared ~init ~schedule
                            ~max_steps:60))
                  then fail "run_until_stable"
              | 2 ->
                  let got =
                    Kernel.settle_codes shared ~labels ~outputs ~schedule
                      ~max_steps:60
                  in
                  let expect =
                    Option.map
                      (fun s -> s.Engine.settle_time)
                      (Kernel.settle (fresh ()) ~init ~schedule ~max_steps:60)
                  in
                  if got <> expect then fail "settle_codes"
              | 3 ->
                  if
                    not
                      (verdict_eq
                         (Kernel.run_until_stable_codes shared ~labels ~outputs
                            ~schedule ~max_steps:60)
                         (Kernel.run_until_stable (fresh ()) ~init ~schedule
                            ~max_steps:60))
                  then fail "run_until_stable_codes"
              | 4 ->
                  let steps = 1 + Random.State.int st 20 in
                  Kernel.run_into shared ~labels ~outputs ~schedule ~steps;
                  if
                    not
                      (config_eq p
                         (Kernel.run (fresh ()) ~init ~schedule ~steps)
                         (Kernel.store shared ~labels ~outputs))
                  then fail "run_into"
              | _ ->
                  let active = random_active n st in
                  if
                    not
                      (config_eq p
                         (Kernel.step (fresh ()) init ~active)
                         (Kernel.step shared init ~active))
                  then fail "step"
            done)
          (schedules_for seed n))
      (tiers p ~input)
  done

(* Label codes wider than 32 bits: a 2-node ring whose labels toggle
   between 0 and 2^32 oscillates with period 2. A key keeping only the low
   32 bits of each code sees one labeling and reports [Stabilized 0]. *)
let test_wide_codes () =
  let p =
    {
      Protocol.name = "wide-toggle";
      graph = Builders.ring_uni 2;
      space = Label.int (1 lsl 33);
      react =
        (fun _ () inc ->
          if inc.(0) = 0 then ([| 1 lsl 32 |], 1) else ([| 0 |], 0));
    }
  in
  let input = [| (); () |] in
  let init = Protocol.uniform_config p 0 in
  let schedule = Schedule.synchronous 2 in
  let max_steps = 50 in
  let oscillating = function
    | Engine.Oscillating { entered = 0; period = 2 } -> true
    | _ -> false
  in
  Alcotest.(check bool) "config keys differ" false
    (String.equal
       (Protocol.config_key p init)
       (Protocol.config_key p (Protocol.uniform_config p (1 lsl 32))));
  Alcotest.(check bool) "engine oscillates" true
    (oscillating (Engine.run_until_stable p ~input ~init ~schedule ~max_steps));
  Alcotest.(check bool) "engine never settles" true
    (Engine.settle p ~input ~init ~schedule ~max_steps = None);
  List.iter
    (fun (tier, k) ->
      Alcotest.(check bool) (tier ^ ": kernel oscillates") true
        (oscillating (Kernel.run_until_stable k ~init ~schedule ~max_steps));
      Alcotest.(check bool) (tier ^ ": kernel never settles") true
        (Kernel.settle k ~init ~schedule ~max_steps = None))
    (kernels p ~input)

(* A memo node whose distinct incoming codes all fit its slots indexes
   them directly, so no code ever evicts another: each in-view's reaction
   runs once, however the in-views alternate. On a bidirectional 3-ring
   over two labels every node has 4 in-views; the two-slot memo must
   still recompute. *)
let test_memo_computes_once () =
  let calls = Hashtbl.create 16 in
  let p =
    {
      Protocol.name = "count-reactions";
      graph = Builders.ring_bi 3;
      space = Label.int 2;
      react =
        (fun i () inc ->
          let key = (i, Array.to_list inc) in
          Hashtbl.replace calls key
            (1 + Option.value ~default:0 (Hashtbl.find_opt calls key));
          ([| 1 - inc.(0); inc.(1) |], inc.(0) + inc.(1)));
    }
  in
  let input = [| (); (); () |] in
  let m = Protocol.num_edges p in
  let sweep k =
    Hashtbl.reset calls;
    (* Every labeling three times, all-0 and all-1 in alternation first. *)
    let all = List.init (1 lsl m) Fun.id in
    let codes = [ 0; (1 lsl m) - 1; 0; (1 lsl m) - 1 ] @ all @ all @ all in
    List.iter
      (fun c ->
        let src = Array.init m (fun e -> (c lsr e) land 1) in
        for i = 0 to 2 do
          ignore (Kernel.row_offset k ~src ~i (Kernel.row_array k i))
        done)
      codes;
    Hashtbl.fold (fun _ n acc -> max n acc) calls 0
  in
  Alcotest.(check int) "memo: one call per in-view" 1
    (sweep (Kernel.create ~max_table_words:0 p ~input));
  Alcotest.(check bool) "two-slot memo: recomputes" true
    (sweep (Kernel.create ~max_table_words:0 ~max_memo_entries:2 p ~input) > 1)

let test_load_store_roundtrip () =
  let p, input, st = random_protocol 3 in
  let k = Kernel.create p ~input in
  let config = random_config p st in
  let labels = Array.make (Protocol.num_edges p) 0 in
  let outputs = Array.make (Protocol.num_nodes p) 0 in
  Kernel.load k config ~labels ~outputs;
  let back = Kernel.store k ~labels ~outputs in
  Alcotest.(check bool) "load/store round-trips" true (config_eq p config back);
  Alcotest.check_raises "load rejects wrong sizes"
    (Invalid_argument "Kernel.load: buffer sizes must match the protocol")
    (fun () -> Kernel.load k config ~labels:[| 0 |] ~outputs)

(* ------------------------------------------------------------------ *)
(* Engine.trace regression                                             *)
(* ------------------------------------------------------------------ *)

(* The double-buffered [trace] must produce exactly the snapshots the
   step-by-step loop did (the previous implementation). *)
let naive_trace p ~input ~init ~schedule ~steps =
  let rec loop t config acc =
    if t >= steps then List.rev (config :: acc)
    else
      let next = Engine.step p ~input config ~active:(schedule.Schedule.active t) in
      loop (t + 1) next (config :: acc)
  in
  loop 0 init []

let test_trace_regression () =
  for seed = 1 to 10 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        List.iter
          (fun steps ->
            let expect = naive_trace p ~input ~init ~schedule ~steps in
            let got = Engine.trace p ~input ~init ~schedule ~steps in
            if
              not
                (List.length expect = List.length got
                && List.for_all2 (config_eq p) expect got)
            then
              Alcotest.failf "trace mismatch (seed %d, %s, %d steps)" seed
                schedule.Schedule.name steps)
          [ 0; 1; 7; 23 ])
      (schedules_for seed n)
  done

let test_trace_snapshots_independent () =
  let n = 4 in
  let p = Clique_example.make n in
  let input = Clique_example.input n in
  let init = Clique_example.oscillation_init p in
  let schedule = Clique_example.oscillation_schedule n in
  let tr = Engine.trace p ~input ~init ~schedule ~steps:6 in
  let keys = List.map (Protocol.config_key p) tr in
  (* Mutating one snapshot must not affect the others (no shared buffers). *)
  List.iter
    (fun c -> c.Protocol.labels.(0) <- not c.Protocol.labels.(0))
    [ List.nth tr 2 ];
  let keys' =
    List.mapi (fun i c -> if i = 2 then List.nth keys 2 else Protocol.config_key p c) tr
  in
  Alcotest.(check (list string)) "other snapshots unaffected" keys keys'

(* ------------------------------------------------------------------ *)
(* Parrun                                                              *)
(* ------------------------------------------------------------------ *)

let test_parrun_identical_across_domains () =
  let f _ i = (i * i) + 7 in
  let expect = Parrun.map ~domains:1 ~ctx:(fun () -> ()) 23 f in
  List.iter
    (fun domains ->
      let got = Parrun.map ~domains ~ctx:(fun () -> ()) 23 f in
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expect got)
    ([ 2; 3; 4; 8; 40 ]
    @ (match Parrun.env_domains () with Some d -> [ d ] | None -> []))

let test_parrun_ctx_per_chunk () =
  (* Contexts are created lazily, at most one per participating domain;
     every task sees some context, and no context is double-counted
     (total increments = total tasks). *)
  let domains = 4 and n = 12 in
  let results =
    Parrun.map ~domains ~ctx:(fun () -> ref 0) n (fun c i ->
        incr c;
        (i, !c))
  in
  Array.iteri
    (fun i (j, _) -> Alcotest.(check int) "index order" i j)
    results;
  let restarts =
    Array.to_list results
    |> List.filter (fun (_, c) -> c = 1)
    |> List.length
  in
  Alcotest.(check bool) "at least one context" true (restarts >= 1);
  Alcotest.(check bool)
    "at most one context per domain" true (restarts <= domains)

let test_parrun_edge_cases () =
  Alcotest.(check (array int)) "empty" [||]
    (Parrun.map ~domains:4 ~ctx:(fun () -> ()) 0 (fun _ i -> i));
  Alcotest.(check (array int)) "more domains than tasks" [| 0; 1 |]
    (Parrun.map ~domains:8 ~ctx:(fun () -> ()) 2 (fun _ i -> i));
  Alcotest.check_raises "rejects domains < 1"
    (Invalid_argument "Parrun.map: domains must be >= 1") (fun () ->
      ignore (Parrun.map ~domains:0 ~ctx:(fun () -> ()) 3 (fun _ i -> i)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_kernel"
    [
      ( "differential",
        [
          Alcotest.test_case "step" `Quick test_step_differential;
          Alcotest.test_case "run" `Quick test_run_differential;
          Alcotest.test_case "run_until_stable" `Quick
            test_run_until_stable_differential;
          Alcotest.test_case "settle" `Quick test_settle_differential;
          Alcotest.test_case "kernel reuse" `Quick test_kernel_reuse;
          Alcotest.test_case "interleaved calls" `Quick test_interleaved_calls;
          Alcotest.test_case "wide label codes" `Quick test_wide_codes;
          Alcotest.test_case "memo computes once" `Quick
            test_memo_computes_once;
          Alcotest.test_case "load/store" `Quick test_load_store_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "matches step-by-step" `Quick
            test_trace_regression;
          Alcotest.test_case "snapshots independent" `Quick
            test_trace_snapshots_independent;
        ] );
      ( "parrun",
        [
          Alcotest.test_case "identical across domains" `Quick
            test_parrun_identical_across_domains;
          Alcotest.test_case "context per chunk" `Quick
            test_parrun_ctx_per_chunk;
          Alcotest.test_case "edge cases" `Quick test_parrun_edge_cases;
        ] );
    ]
