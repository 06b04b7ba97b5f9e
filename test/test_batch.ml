(* Differential suite: the batched lock-step {!Batch} against per-instance
   {!Kernel} runs on randomized protocols, schedules and all three reaction
   tiers (plus an evicting memo), for batch sizes {1, 2, 7, 64}; plus
   batched campaign determinism across batch sizes and domain counts. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Batch = Stateless_core.Batch
module Parrun = Stateless_core.Parrun
module Schedule = Stateless_core.Schedule
module Proptest = Stateless_core.Proptest

let random_protocol seed = Proptest.random_protocol seed
let random_config = Proptest.random_config
let schedules_for seed n = Proptest.schedules_for seed n
let config_eq = Proptest.config_eq

(* One batch per tier, plus a two-slot memo where nearly every lookup
   evicts; the choice must stay observably invisible through the planes
   exactly as it is through the per-instance kernel. *)
let kernels p ~input =
  [
    ("table", Kernel.create p ~input);
    ("memo", Kernel.create ~max_table_words:0 p ~input);
    ("evict", Kernel.create ~max_table_words:0 ~max_memo_entries:2 p ~input);
    ("raw", Kernel.create ~max_table_words:0 ~max_memo_entries:0 p ~input);
  ]

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

let batch_sizes = [ 1; 2; 7; 64 ]
let trials = 12

(* ------------------------------------------------------------------ *)
(* Lock-step stepping                                                  *)
(* ------------------------------------------------------------------ *)

let test_step_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    List.iter
      (fun (tier, k) ->
        let bt = Batch.create k in
        List.iter
          (fun b ->
            List.iter
              (fun schedule ->
                let inits = Array.init b (fun _ -> random_config p st) in
                let steps = 1 + Random.State.int st 30 in
                Batch.load_block bt inits;
                for s = 0 to steps - 1 do
                  Batch.step bt ~active:(schedule.Schedule.active s)
                done;
                Array.iteri
                  (fun j init ->
                    let expect = Kernel.run k ~init ~schedule ~steps in
                    let got = Batch.store bt ~j in
                    if not (config_eq p expect got) then
                      Alcotest.failf
                        "lock-step mismatch (seed %d, tier %s, b=%d, j=%d, %s)"
                        seed tier b j schedule.Schedule.name)
                  inits)
              (schedules_for seed n))
          batch_sizes)
      (kernels p ~input)
  done

(* Retired instances must keep answering probes from their snapshot while
   the survivors keep stepping. *)
let test_retire_snapshot () =
  let p, input, st = random_protocol 5 in
  let n = Protocol.num_nodes p in
  let m = Protocol.num_edges p in
  let k = Kernel.create p ~input in
  let bt = Batch.create k in
  let schedule = Schedule.synchronous n in
  let inits = Array.init 6 (fun _ -> random_config p st) in
  Batch.load_block bt inits;
  for s = 0 to 4 do
    Batch.step bt ~active:(schedule.Schedule.active s)
  done;
  let frozen = Batch.store bt ~j:2 in
  let codes = Array.init m (fun e -> Batch.label_code bt ~j:2 e) in
  Batch.retire bt ~j:2;
  Alcotest.(check bool) "retired not live" false (Batch.is_live bt ~j:2);
  Alcotest.(check int) "live count" 5 (Batch.live_count bt);
  for s = 5 to 14 do
    Batch.step bt ~active:(schedule.Schedule.active s)
  done;
  Alcotest.(check bool) "snapshot config unchanged" true
    (config_eq p frozen (Batch.store bt ~j:2));
  Array.iteri
    (fun e c ->
      Alcotest.(check int) "snapshot label code" c (Batch.label_code bt ~j:2 e))
    codes;
  (* Survivors match per-instance runs of the same length. *)
  Array.iteri
    (fun j init ->
      if j <> 2 then
        let expect = Kernel.run k ~init ~schedule ~steps:15 in
        if not (config_eq p expect (Batch.store bt ~j)) then
          Alcotest.failf "survivor %d diverged after retire" j)
    inits

(* ------------------------------------------------------------------ *)
(* run_until_stable / settle                                           *)
(* ------------------------------------------------------------------ *)

let test_run_until_stable_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    List.iter
      (fun (tier, k) ->
        let bt = Batch.create k in
        List.iter
          (fun b ->
            List.iter
              (fun schedule ->
                let inits = Array.init b (fun _ -> random_config p st) in
                let max_steps = 60 in
                let got =
                  Batch.run_until_stable bt ~inits ~schedule ~max_steps
                in
                Array.iteri
                  (fun j init ->
                    let expect =
                      Kernel.run_until_stable k ~init ~schedule ~max_steps
                    in
                    if not (outcome_eq p expect got.(j)) then
                      Alcotest.failf
                        "run_until_stable mismatch (seed %d, tier %s, b=%d, \
                         j=%d, %s)"
                        seed tier b j schedule.Schedule.name)
                  inits)
              (schedules_for seed n))
          batch_sizes)
      (kernels p ~input)
  done

let test_settle_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    List.iter
      (fun (tier, k) ->
        let bt = Batch.create k in
        List.iter
          (fun b ->
            List.iter
              (fun schedule ->
                let inits = Array.init b (fun _ -> random_config p st) in
                let max_steps = 80 in
                let got = Batch.settle bt ~inits ~schedule ~max_steps in
                Array.iteri
                  (fun j init ->
                    let expect = Kernel.settle k ~init ~schedule ~max_steps in
                    if not (settled_eq p expect got.(j)) then
                      Alcotest.failf
                        "settle mismatch (seed %d, tier %s, b=%d, j=%d, %s)"
                        seed tier b j schedule.Schedule.name)
                  inits)
              (schedules_for seed n))
          batch_sizes)
      (kernels p ~input)
  done

(* A batch is reused across blocks of varying size in campaigns; shrinking
   then growing blocks must not leak state between blocks. *)
let test_batch_reuse_across_block_sizes () =
  let p, input, st = random_protocol 23 in
  let n = Protocol.num_nodes p in
  let k = Kernel.create p ~input in
  let bt = Batch.create k in
  let schedule = Schedule.synchronous n in
  List.iter
    (fun b ->
      let inits = Array.init b (fun _ -> random_config p st) in
      let got = Batch.settle bt ~inits ~schedule ~max_steps:80 in
      Array.iteri
        (fun j init ->
          let expect = Kernel.settle k ~init ~schedule ~max_steps:80 in
          if not (settled_eq p expect got.(j)) then
            Alcotest.failf "reuse mismatch (block %d, j=%d)" b j)
        inits)
    [ 5; 64; 3; 17; 1; 64 ]

(* ------------------------------------------------------------------ *)
(* Batched campaigns: identical for every batch size and domain count  *)
(* ------------------------------------------------------------------ *)

module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Byzlab = Stateless_byzlab.Byzlab

(* Campaign records are plain data (strings, ints, floats computed
   identically), so structural equality is the bit-identical check. *)
let test_faultlab_campaign_batched () =
  let domain_counts =
    [ 1; 2; 4 ]
    @ (match Parrun.env_domains () with Some d -> [ d ] | None -> [])
  in
  List.iter
    (fun sc ->
      let base =
        Faultlab.run ~fractions:[ 0.25; 1.0 ] ~seeds:5 ~max_steps:2_000 sc
      in
      List.iter
        (fun batch ->
          List.iter
            (fun domains ->
              let got =
                Faultlab.run ~fractions:[ 0.25; 1.0 ] ~seeds:5
                  ~max_steps:2_000 ~batch ~domains sc
              in
              if got <> base then
                Alcotest.failf "%s: batch=%d domains=%d diverged"
                  base.Faultlab.scenario_name batch domains)
            domain_counts)
        [ 1; 2; 4; 64 ])
    (Faultlab.default_scenarios ())

(* Netlab batches only the post-storm recovery phase (storms stay
   per-instance), so the equality sweep exercises the mixed path. *)
let test_netlab_campaign_batched () =
  let budget = { Netlab.k = 4; window = 8 } in
  List.iter
    (fun sc ->
      let base =
        Netlab.run ~seeds:4 ~storm:60 ~max_steps:2_000 ~budget sc
      in
      List.iter
        (fun batch ->
          List.iter
            (fun domains ->
              let got =
                Netlab.run ~seeds:4 ~storm:60 ~max_steps:2_000 ~budget ~batch
                  ~domains sc
              in
              if got <> base then
                Alcotest.failf "%s: batch=%d domains=%d diverged"
                  base.Netlab.scenario_name batch domains)
            [ 1; 2; 4 ])
        [ 2; 7; 64 ])
    (Netlab.default_scenarios ())

(* Byzlab blocks cross placement levels (the batched context takes a
   per-index placement array), so odd batch sizes that straddle level
   boundaries are the interesting cases. *)
let test_byzlab_campaign_batched () =
  List.iter
    (fun strategy ->
      List.iter
        (fun sc ->
          let base =
            Byzlab.run ~seeds:4 ~attack:60 ~max_steps:2_000 ~strategy sc
          in
          List.iter
            (fun batch ->
              List.iter
                (fun domains ->
                  let got =
                    Byzlab.run ~seeds:4 ~attack:60 ~max_steps:2_000 ~strategy
                      ~batch ~domains sc
                  in
                  if got <> base then
                    Alcotest.failf "%s/%s: batch=%d domains=%d diverged"
                      base.Byzlab.scenario_name base.Byzlab.strategy batch
                      domains)
                [ 1; 2; 4 ])
            [ 3; 16; 64 ])
        (Byzlab.default_scenarios ()))
    [ Byzlab.Seeded_random; Byzlab.Anti_majority ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_batch"
    [
      ( "differential",
        [
          Alcotest.test_case "lock-step stepping" `Quick test_step_differential;
          Alcotest.test_case "retire snapshot" `Quick test_retire_snapshot;
          Alcotest.test_case "run_until_stable" `Quick
            test_run_until_stable_differential;
          Alcotest.test_case "settle" `Quick test_settle_differential;
          Alcotest.test_case "reuse across block sizes" `Quick
            test_batch_reuse_across_block_sizes;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "faultlab batched identical" `Quick
            test_faultlab_campaign_batched;
          Alcotest.test_case "netlab batched identical" `Quick
            test_netlab_campaign_batched;
          Alcotest.test_case "byzlab batched identical" `Quick
            test_byzlab_campaign_batched;
        ] );
    ]
