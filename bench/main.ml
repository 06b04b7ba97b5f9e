(* Benchmark & experiment harness.

   Running this executable regenerates every quantitative claim of the
   paper (experiments E1..E15, one table each — see DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured), then runs a
   Bechamel micro-benchmark suite over the core computational kernels. *)

open Bechamel
open Toolkit
module Builders = Stateless_graph.Builders
module Circuit = Stateless_circuit.Circuit
module Bp = Stateless_bp.Bp
module Snake = Stateless_snake.Snake
module Checker = Stateless_checker.Checker
module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Netcheck = Stateless_netlab.Netcheck
module Byzlab = Stateless_byzlab.Byzlab
module Byzcheck = Stateless_byzlab.Byzcheck
module Simlab = Stateless_simlab.Simlab
module Campaign = Stateless_campaign.Campaign
module Chaoslab = Stateless_chaoslab.Chaoslab
module Fuzz = Stateless_chaoslab.Fuzz
module Machine = Stateless_machine.Machine
open Stateless_core

(* The lab campaigns run through the crash-tolerant orchestrator (no
   journal, no deadline — plain policy), so every BENCH_*.json carries
   the ok/timeout/error cell accounting. *)
let zero_counts = { Campaign.ok = 0; timeout = 0; error = 0; replayed = 0 }

let add_counts (a : Campaign.counts) (b : Campaign.counts) =
  {
    Campaign.ok = a.Campaign.ok + b.Campaign.ok;
    timeout = a.Campaign.timeout + b.Campaign.timeout;
    error = a.Campaign.error + b.Campaign.error;
    replayed = a.Campaign.replayed + b.Campaign.replayed;
  }

let cell_triple (c : Campaign.counts) =
  (c.Campaign.ok, c.Campaign.timeout, c.Campaign.error)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the computational kernels                       *)
(* ------------------------------------------------------------------ *)

let parity bits = Array.fold_left (fun acc b -> acc <> b) false bits

let bench_engine_step =
  (* One synchronous step of the Prop 2.3 generic protocol on a 64-ring. *)
  let n = 60 in
  let g = Builders.ring_bi n in
  let p = Generic.make g parity in
  let input = Array.init n (fun i -> i mod 3 = 0) in
  let config = Protocol.uniform_config p (Array.make (n + 1) false) in
  let active = List.init n Fun.id in
  Test.make ~name:"engine/step generic ring60"
    (Staged.stage (fun () -> ignore (Engine.step p ~input config ~active)))

let bench_engine_stabilize =
  (* Full synchronous stabilization of the generic protocol on a 16-ring. *)
  let n = 16 in
  let g = Builders.ring_bi n in
  let p = Generic.make g parity in
  let input = Array.init n (fun i -> i mod 2 = 0) in
  let init = Protocol.uniform_config p (Array.make (n + 1) true) in
  let schedule = Schedule.synchronous n in
  Test.make ~name:"engine/stabilize generic ring16"
    (Staged.stage (fun () ->
         ignore
           (Engine.run_until_stable p ~input ~init ~schedule
              ~max_steps:(4 * n * n))))

let bench_checker =
  (* Exhaustive label 2-stabilization check of Example 1 on K_3. *)
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  Test.make ~name:"checker/example1 n=3 r=2"
    (Staged.stage (fun () ->
         ignore (Checker.check_label p ~input ~r:2 ~max_states:1_000_000)))

let bench_circuit_eval =
  let c = Circuit.majority 64 in
  let x = Array.init 64 (fun i -> i mod 2 = 0) in
  Test.make ~name:"circuit/eval majority64"
    (Staged.stage (fun () -> ignore (Circuit.eval c x)))

let bench_bp_eval =
  let bp = Bp.majority 64 in
  let x = Array.init 64 (fun i -> i mod 3 = 0) in
  Test.make ~name:"bp/eval majority64"
    (Staged.stage (fun () -> ignore (Bp.eval bp x)))

let bench_snake_search =
  Test.make ~name:"snake/search d=4 exact"
    (Staged.stage (fun () -> ignore (Snake.search 4 ~node_budget:max_int)))

let bench_counter_step =
  let t = Stateless_counter.D_counter.make ~n:9 ~d:16 () in
  let p = Stateless_counter.D_counter.protocol t in
  let input = Stateless_counter.D_counter.input t in
  let config = Protocol.uniform_config p (p.Protocol.space.Label.decode 0) in
  let active = List.init 9 Fun.id in
  Test.make ~name:"counter/step d-counter n=9"
    (Staged.stage (fun () -> ignore (Engine.step p ~input config ~active)))

let bench_compile_run =
  let t = Stateless_compile.Compile.make (Circuit.parity 3) in
  let x = [| true; false; true |] in
  Test.make ~name:"compile/run parity3 ring"
    (Staged.stage (fun () -> ignore (Stateless_compile.Compile.run t x)))

let micro_tests =
  [
    bench_engine_step; bench_engine_stabilize; bench_checker;
    bench_circuit_eval; bench_bp_eval; bench_snake_search;
    bench_counter_step; bench_compile_run;
  ]

let run_micro_benchmarks () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "Micro-benchmarks (Bechamel, monotonic clock)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ time_ns ] ->
              Printf.printf "  %-36s %12.1f ns/run\n" name time_ns
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        analyzed)
    micro_tests

(* ------------------------------------------------------------------ *)
(* Checker benchmark — machine-readable BENCH_checker.json             *)
(* ------------------------------------------------------------------ *)

type checker_case = {
  cc_name : string;
  cc_fast_s : float;  (* wall seconds per run, memoized CSR checker *)
  cc_naive_s : float;  (* wall seconds per run, naive reference *)
  cc_reps : int;
  cc_states : int;
  cc_edges : int;
  cc_hits : int;
  cc_misses : int;
  cc_verdict : string;
}

let verdict_name = function
  | Checker.Stabilizing -> "stabilizing"
  | Checker.Oscillating _ -> "oscillating"
  | Checker.Too_large _ -> "too_large"

(* [--smoke] shrinks every rep/seed count and timing window to CI-sized
   values: the point is that the bench binaries and JSON writers cannot
   bitrot, not the numbers. *)
let smoke = Array.exists (String.equal "--smoke") Sys.argv

(* The domain count requested through PARRUN_DOMAINS, 1 when unset. *)
let env_domains () =
  match Parrun.env_domains () with Some d -> d | None -> 1

(* Wall time per run: one discarded warm-up run, then the minimum over
   several batches of the per-run mean within each batch. The mean inside
   a batch absorbs clock granularity on sub-microsecond runs; min-of-N
   across batches filters one-sided noise (GC pauses, scheduler
   preemption), which a single long mean folds into the estimate. *)
let time_runs f =
  ignore (f ());
  let batches = if smoke then 2 else 3 in
  let window = if smoke then 0.01 else 0.1 in
  let best = ref infinity in
  let total_reps = ref 0 in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < window do
      ignore (f ());
      incr reps;
      elapsed := Unix.gettimeofday () -. t0
    done;
    total_reps := !total_reps + !reps;
    let per_run = !elapsed /. float !reps in
    if per_run < !best then best := per_run
  done;
  (!best, !total_reps)

let checker_case ~name ~fast ~naive =
  let fast_s, reps = time_runs fast in
  let stats =
    match Checker.last_stats () with
    | Some s -> s
    | None -> failwith "checker bench: no stats recorded"
  in
  let naive_s, _ = time_runs naive in
  {
    cc_name = name;
    cc_fast_s = fast_s;
    cc_naive_s = naive_s;
    cc_reps = reps;
    cc_states = stats.Checker.states;
    cc_edges = stats.Checker.edges;
    cc_hits = stats.Checker.memo_hits;
    cc_misses = stats.Checker.memo_misses;
    cc_verdict = verdict_name (fast ());
  }

(* One symmetry-reduced exploration, timed as a single run (the large
   instances are far too big to repeat inside a timing window; the small
   ones exist to anchor the reduction factor, not the clock). *)
type sym_row = {
  sy_name : string;
  sy_group : int;  (* automorphism group order *)
  sy_wall_s : float;
  sy_states : int;  (* orbit representatives explored *)
  sy_full : int;  (* unreduced states certified *)
  sy_verdict : string;
  sy_replay_ok : bool;
}

let sym_checker_row ~name sym p ~input ~r ~max_states =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let v = Checker.check_label ~symmetry:sym p ~input ~r ~max_states in
  let wall = Unix.gettimeofday () -. t0 in
  let states, full =
    match v with
    | Checker.Too_large _ -> (0, 0)
    | Checker.Stabilizing | Checker.Oscillating _ ->
        let s = Option.get (Checker.last_stats ()) in
        (s.Checker.states, s.Checker.full_states)
  in
  let replay_ok =
    match v with
    | Checker.Oscillating w -> Checker.replay p ~input w
    | Checker.Stabilizing | Checker.Too_large _ -> true
  in
  let row =
    {
      sy_name = name;
      sy_group = Stateless_checker.Symmetry.order sym;
      sy_wall_s = wall;
      sy_states = states;
      sy_full = full;
      sy_verdict = verdict_name v;
      sy_replay_ok = replay_ok;
    }
  in
  Printf.printf
    "  sym %-24s |G|=%-3d %8.3f s  %9d reps certify %9d states (%5.1fx)  \
     %-11s replay=%b\n"
    row.sy_name row.sy_group row.sy_wall_s row.sy_states row.sy_full
    (if states = 0 then 0. else float full /. float states)
    row.sy_verdict row.sy_replay_ok;
  row

let run_checker_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf
    "Checker benchmark (memoized CSR explorer vs naive reference)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  (* Whatever ran before (Bechamel in particular) leaves a large, fragmented
     major heap that penalizes the allocation-light fast path much more than
     the naive one; compact so the recorded ratios don't depend on it. *)
  Gc.compact ();
  let k3 = Clique_example.make 3 and k3_in = Clique_example.input 3 in
  let k4 = Clique_example.make 4 and k4_in = Clique_example.input 4 in
  (* Unidirectional 5-ring where each node copies its incoming label:
     boolean labels keep the states-graph enumerable (2^5 labelings). *)
  let ring5 : (unit, bool) Protocol.t =
    {
      Protocol.name = "copy-ring-uni-5";
      graph = Builders.ring_uni 5;
      space = Label.bool;
      react = (fun _ () incoming -> ([| incoming.(0) |], 0));
    }
  in
  let ring5_in = Array.make 5 () in
  let cases =
    [
      checker_case ~name:"example1_k3_r2"
        ~fast:(fun () ->
          Checker.check_label k3 ~input:k3_in ~r:2 ~max_states:1_000_000)
        ~naive:(fun () ->
          Checker.Naive.check_label k3 ~input:k3_in ~r:2
            ~max_states:1_000_000);
      checker_case ~name:"example1_k4_r2"
        ~fast:(fun () ->
          Checker.check_label k4 ~input:k4_in ~r:2 ~max_states:2_000_000)
        ~naive:(fun () ->
          Checker.Naive.check_label k4 ~input:k4_in ~r:2
            ~max_states:2_000_000);
      checker_case ~name:"copy_ring_uni5_r2"
        ~fast:(fun () ->
          Checker.check_label ring5 ~input:ring5_in ~r:2
            ~max_states:2_000_000)
        ~naive:(fun () ->
          Checker.Naive.check_label ring5 ~input:ring5_in ~r:2
            ~max_states:2_000_000);
    ]
  in
  List.iter
    (fun c ->
      Printf.printf
        "  %-26s %10.6f s/run  (naive %10.6f, %5.1fx)  %-11s %d states\n"
        c.cc_name c.cc_fast_s c.cc_naive_s (c.cc_naive_s /. c.cc_fast_s)
        c.cc_verdict c.cc_states)
    cases;
  (* Symmetry-reduced frontier: the quotient explorer certifies the full
     unreduced states-graph while interning one representative per orbit.
     The large rows are the whole point — instances two to three orders
     of magnitude beyond the unreduced K4 baseline (6852 states), one of
     them past the Stateset direct-map budget so the open-addressing path
     runs in production, not just in tests. Skipped under --smoke. *)
  let sym_rows =
    (* Bind in order: list elements evaluate right-to-left, and the rows
       must print as they run. *)
    let k4sym = Stateless_checker.Symmetry.clique k4.Protocol.graph in
    let s1 =
      sym_checker_row ~name:"example1_k4_r2_sym" k4sym k4 ~input:k4_in ~r:2
        ~max_states:2_000_000
    in
    let s2 =
      sym_checker_row ~name:"example1_k4_r3_sym" k4sym k4 ~input:k4_in ~r:3
        ~max_states:2_000_000
    in
    if smoke then [ s1; s2 ]
    else
      (* 13 labels on the unidirectional 5-ring: 13^5 * 2^5 = 11.9M
         states, quotiented by the 5 rotations. *)
      let ring13 : (unit, int) Protocol.t =
        {
          Protocol.name = "copy-ring-uni-5-c13";
          graph = Builders.ring_uni 5;
          space = Label.int 13;
          react = (fun _ () incoming -> ([| incoming.(0) |], incoming.(0)));
        }
      in
      let ring13_sym =
        Stateless_checker.Symmetry.ring ring13.Protocol.graph
      in
      let s3 =
        sym_checker_row ~name:"copy_ring_uni5_c13_r2_sym" ring13_sym ring13
          ~input:(Array.make 5 ()) ~r:2 ~max_states:12_000_000
      in
      (* 2^20 * 2^5 = 33.5M states > Stateset.direct_cap: hashed mode. *)
      let k5 = Clique_example.make 5 and k5_in = Clique_example.input 5 in
      let k5sym = Stateless_checker.Symmetry.clique k5.Protocol.graph in
      let s4 =
        sym_checker_row ~name:"example1_k5_r2_sym" k5sym k5 ~input:k5_in ~r:2
          ~max_states:40_000_000
      in
      [ s1; s2; s3; s4 ]
  in
  let count v =
    List.length (List.filter (fun c -> String.equal c.cc_verdict v) cases)
  in
  Bench_json.to_file "BENCH_checker.json" (fun oc ->
  Bench_json.write ~benchmark:"checker"
    ~host:(Bench_json.host ~domains:1 ())
    oc
    (fun oc ->
      Printf.fprintf oc
        "  \"verdict_counts\": { \"stabilizing\": %d, \"oscillating\": %d, \
         \"too_large\": %d },\n"
        (count "stabilizing") (count "oscillating") (count "too_large");
      Printf.fprintf oc "  \"experiments\": [\n";
      List.iteri
        (fun i c ->
          let hit_rate =
            if c.cc_hits + c.cc_misses = 0 then 0.
            else float c.cc_hits /. float (c.cc_hits + c.cc_misses)
          in
          Printf.fprintf oc
            "    { \"name\": %S, \"wall_s_per_run\": %.9f, \"reps\": %d,\n\
            \      \"naive_wall_s_per_run\": %.9f, \"speedup_vs_naive\": \
             %.2f,\n\
            \      \"states\": %d, \"edges\": %d, \"states_per_sec\": %.0f,\n\
            \      \"memo_hits\": %d, \"memo_misses\": %d, \
             \"memo_hit_rate\": %.4f,\n\
            \      \"verdict\": %S }%s\n"
            c.cc_name c.cc_fast_s c.cc_reps c.cc_naive_s
            (c.cc_naive_s /. c.cc_fast_s)
            c.cc_states c.cc_edges
            (float c.cc_states /. c.cc_fast_s)
            c.cc_hits c.cc_misses hit_rate c.cc_verdict
            (if i = List.length cases - 1 then "" else ","))
        cases;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc "  \"symmetry\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "    { \"name\": %S, \"group_order\": %d, \"wall_s\": %.6f,\n\
            \      \"states\": %d, \"full_states\": %d, \"reduction\": \
             %.2f,\n\
            \      \"full_states_per_sec\": %.0f, \"verdict\": %S, \
             \"replay_ok\": %b }%s\n"
            s.sy_name s.sy_group s.sy_wall_s s.sy_states s.sy_full
            (if s.sy_states = 0 then 0.
             else float s.sy_full /. float s.sy_states)
            (if s.sy_wall_s = 0. then 0. else float s.sy_full /. s.sy_wall_s)
            s.sy_verdict s.sy_replay_ok
            (if i = List.length sym_rows - 1 then "" else ","))
        sym_rows;
      Printf.fprintf oc "  ]\n"));
  Printf.printf "  [wrote BENCH_checker.json]\n"

(* ------------------------------------------------------------------ *)
(* Fault-recovery campaign — machine-readable BENCH_faults.json        *)
(* ------------------------------------------------------------------ *)

let run_fault_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf
    "Fault-recovery campaign (recovery steps vs corruption fraction)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  let seeds = if smoke then 5 else 30
  and max_steps = if smoke then 2_000 else 10_000 in
  let counts = ref zero_counts in
  let campaigns =
    List.map
      (fun sc ->
        let c, cnt = Faultlab.run_matrix ~seeds ~max_steps ~domains:1 sc in
        counts := add_counts !counts cnt;
        c)
      (Faultlab.default_scenarios ())
  in
  List.iter (Faultlab.print_campaign stdout) campaigns;
  Bench_json.to_file "BENCH_faults.json" (fun oc ->
      Faultlab.write_json
        ~host:(Bench_json.host ~domains:1 ())
        ~cells:(cell_triple !counts) oc campaigns);
  Printf.printf "  [wrote BENCH_faults.json]\n"

(* ------------------------------------------------------------------ *)
(* Adversarial-channel campaign — machine-readable BENCH_netlab.json   *)
(* ------------------------------------------------------------------ *)

let run_netlab_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf
    "Adversarial-channel campaign (degradation & recovery vs fault level)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  let seeds = if smoke then 4 else 25
  and storm = if smoke then 80 else 400
  and max_steps = if smoke then 2_000 else 10_000 in
  let budget = { Netlab.k = 4; window = 8 } in
  let counts = ref zero_counts in
  let campaigns =
    List.map
      (fun sc ->
        let c, cnt =
          Netlab.run_matrix ~seeds ~storm ~max_steps ~domains:1 ~budget sc
        in
        counts := add_counts !counts cnt;
        c)
      (Netlab.default_scenarios ())
  in
  List.iter (Netlab.print_campaign stdout) campaigns;
  (* Exhaustive bounded-adversary certification on the instances small
     enough to enumerate: the clique flips at k = 1, the copy ring keeps
     its outputs for any single-edge rewrite per window. *)
  let cert instance p input ~r ~k ~window =
    let verdict_name = function
      | Netcheck.Stabilizing -> "stabilizing"
      | Netcheck.Oscillating _ -> "oscillating"
      | Netcheck.Too_large _ -> "too_large"
    in
    let v = Netcheck.check_output p ~input ~r ~k ~window ~max_states:2_000_000 in
    let states, edges =
      match Netcheck.last_stats () with
      | Some s -> (s.Netcheck.states, s.Netcheck.edges)
      | None -> (0, 0)
    in
    Printf.printf "  certify %-22s r=%d k=%d w=%d -> %-11s (%d states)\n"
      instance r k window (verdict_name v) states;
    Printf.sprintf
      "{ \"instance\": %S, \"mode\": \"output\", \"r\": %d, \"k\": %d, \
       \"window\": %d, \"verdict\": %S, \"states\": %d, \"edges\": %d }"
      instance r k window (verdict_name v) states edges
  in
  let k3 = Stateless_core.Clique_example.make 3 in
  let k3_input = Array.make 3 () in
  let copy : (unit, bool) Protocol.t =
    {
      Protocol.name = "copy_ring_3";
      graph = Builders.ring_uni 3;
      space = Label.bool;
      react = (fun _ () incoming -> ([| incoming.(0) |], 0));
    }
  in
  let copy_input = Array.make 3 () in
  let certification =
    [
      cert "clique_k3" k3 k3_input ~r:1 ~k:0 ~window:1;
      cert "clique_k3" k3 k3_input ~r:1 ~k:1 ~window:1;
      cert "copy_ring_3" copy copy_input ~r:1 ~k:1 ~window:1;
    ]
  in
  Bench_json.to_file "BENCH_netlab.json" (fun oc ->
      Netlab.write_json
        ~host:(Bench_json.host ~domains:1 ())
        ~cells:(cell_triple !counts) ~certification oc campaigns);
  Printf.printf "  [wrote BENCH_netlab.json]\n"

(* ------------------------------------------------------------------ *)
(* Byzantine-node campaign — machine-readable BENCH_byz.json           *)
(* ------------------------------------------------------------------ *)

let run_byz_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf
    "Byzantine-node campaign (deviation, containment radius & recovery)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  let seeds = if smoke then 4 else 25
  and attack = if smoke then 80 else 400
  and max_steps = if smoke then 2_000 else 10_000 in
  let counts = ref zero_counts in
  let campaigns =
    List.concat_map
      (fun strategy ->
        List.map
          (fun sc ->
            let c, cnt =
              Byzlab.run_matrix ~seeds ~attack ~max_steps ~domains:1 ~strategy
                sc
            in
            counts := add_counts !counts cnt;
            c)
          (Byzlab.default_scenarios ()))
      [ Byzlab.Seeded_random; Byzlab.Anti_majority ]
  in
  List.iter (Byzlab.print_campaign stdout) campaigns;
  (* Exhaustive (r,B)-certification on the instances small enough to
     enumerate every Byzantine behavior: the clique diverges as soon as
     one node turns Byzantine (an adversarial schedule plus adversarial
     labels un-stabilizes both neighbours), while the B = {} rows must
     coincide with the plain checker's verdicts. Oscillation witnesses
     are replayed on both execution engines before being recorded. *)
  let cert instance p input ~byz ~r =
    let verdict_name = function
      | Byzcheck.Stabilizing -> "stabilizing"
      | Byzcheck.Oscillating _ -> "oscillating"
      | Byzcheck.Too_large _ -> "too_large"
    in
    let v = Byzcheck.check_output p ~input ~byz ~r ~max_states:2_000_000 in
    let replay_ok =
      match v with
      | Byzcheck.Oscillating w ->
          Byzcheck.replay p ~input ~byz w
          && Byzcheck.replay_packed p ~input ~byz w
      | Byzcheck.Stabilizing | Byzcheck.Too_large _ -> true
    in
    let states, edges =
      match Byzcheck.last_stats () with
      | Some s -> (s.Byzcheck.states, s.Byzcheck.edges)
      | None -> (0, 0)
    in
    let radius_json, stabilized =
      match Byzcheck.containment p ~input ~byz ~r ~max_states:2_000_000 with
      | Ok c ->
          ( (match c.Byzcheck.radius with
            | None -> "null"
            | Some d -> string_of_int d),
            c.Byzcheck.stabilized_fraction )
      | Error _ -> ("null", 1.0)
    in
    let byz_s = String.concat "," (List.map string_of_int byz) in
    Printf.printf
      "  certify %-14s B={%s} r=%d -> %-11s replay=%b radius=%s (%d states)\n"
      instance byz_s r (verdict_name v) replay_ok radius_json states;
    Printf.sprintf
      "{ \"instance\": %S, \"mode\": \"output\", \"r\": %d, \"byz\": [%s], \
       \"byz_count\": %d, \"verdict\": %S, \"replay_ok\": %b, \
       \"stabilized_fraction\": %.4f, \"radius\": %s, \"states\": %d, \
       \"edges\": %d }"
      instance r byz_s (List.length byz) (verdict_name v) replay_ok stabilized
      radius_json states edges
  in
  let k3 = Clique_example.make 3 in
  let k3_input = Clique_example.input 3 in
  let copy = Proptest.copy_ring ~name:"copy_ring_3" 3 in
  let copy_input = Array.make 3 () in
  (* Bind in order: list elements evaluate right-to-left, and the rows
     print as they certify. *)
  let c1 = cert "clique_k3" k3 k3_input ~byz:[] ~r:1 in
  let c2 = cert "clique_k3" k3 k3_input ~byz:[ 0 ] ~r:1 in
  let c3 = cert "clique_k3" k3 k3_input ~byz:[ 0; 1 ] ~r:1 in
  let c4 = cert "copy_ring_3" copy copy_input ~byz:[] ~r:1 in
  let c5 = cert "copy_ring_3" copy copy_input ~byz:[ 0 ] ~r:1 in
  let certification = [ c1; c2; c3; c4; c5 ] in
  Bench_json.to_file "BENCH_byz.json" (fun oc ->
      Byzlab.write_json
        ~host:(Bench_json.host ~domains:1 ())
        ~cells:(cell_triple !counts) ~certification oc campaigns);
  Printf.printf "  [wrote BENCH_byz.json]\n"

(* ------------------------------------------------------------------ *)
(* Engine benchmark — machine-readable BENCH_engine.json               *)
(* ------------------------------------------------------------------ *)

type efixture =
  | Fixture : {
      ef_name : string;
      ef_p : ('x, 'l) Protocol.t;
      ef_input : 'x array;
      ef_init : 'l Protocol.config;
      ef_schedule : Schedule.t;
    }
      -> efixture

let engine_fixtures () =
  let k4 = Clique_example.make 4 in
  let dc = Stateless_counter.D_counter.make ~n:9 ~d:16 () in
  let dcp = Stateless_counter.D_counter.protocol dc in
  let osc = Stateless_games.Feedback.ring_oscillator 5 in
  let tm = Machine.parity 4 in
  let tmp = Machine.protocol_of_machine tm in
  [
    Fixture
      {
        ef_name = "example1_k4";
        ef_p = k4;
        ef_input = Clique_example.input 4;
        ef_init = Clique_example.oscillation_init k4;
        ef_schedule = Schedule.synchronous 4;
      };
    Fixture
      {
        ef_name = "d_counter_n9_d16";
        ef_p = dcp;
        ef_input = Stateless_counter.D_counter.input dc;
        ef_init =
          Protocol.uniform_config dcp (dcp.Protocol.space.Label.decode 0);
        ef_schedule = Schedule.synchronous 9;
      };
    Fixture
      {
        ef_name = "ring_oscillator_5";
        ef_p = osc;
        ef_input = Array.make 5 ();
        ef_init = Protocol.uniform_config osc false;
        ef_schedule = Schedule.round_robin 5;
      };
    Fixture
      {
        ef_name = "tm_parity_4_ring";
        ef_p = tmp;
        ef_input = [| true; false; true; false |];
        ef_init =
          Protocol.uniform_config tmp (tmp.Protocol.space.Label.decode 0);
        ef_schedule = Schedule.synchronous 4;
      };
  ]

type engine_row = {
  er_name : string;
  er_schedule : string;
  er_steps : int;
  er_boxed_sps : float;  (* boxed Engine.run steps per second *)
  er_packed_sps : float;  (* packed Kernel.run_into steps per second *)
}

let engine_row steps (Fixture f) =
  let p = f.ef_p and input = f.ef_input in
  let schedule = f.ef_schedule and init = f.ef_init in
  let boxed () = ignore (Engine.run p ~input ~init ~schedule ~steps) in
  let kern = Kernel.create p ~input in
  let labels = Array.make (Protocol.num_edges p) 0 in
  let outputs = Array.make (Protocol.num_nodes p) 0 in
  let packed () =
    Kernel.load kern init ~labels ~outputs;
    Kernel.run_into kern ~labels ~outputs ~schedule ~steps
  in
  let boxed_s, _ = time_runs boxed in
  let packed_s, _ = time_runs packed in
  {
    er_name = f.ef_name;
    er_schedule = schedule.Schedule.name;
    er_steps = steps;
    er_boxed_sps = float steps /. boxed_s;
    er_packed_sps = float steps /. packed_s;
  }

let run_engine_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "Engine benchmark (boxed Engine.step vs packed Kernel)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  Gc.compact ();
  let steps = if smoke then 500 else 5_000 in
  let rows = List.map (engine_row steps) (engine_fixtures ()) in
  List.iter
    (fun r ->
      Printf.printf "  %-22s %-12s %12.0f steps/s boxed %12.0f packed (%5.1fx)\n"
        r.er_name r.er_schedule r.er_boxed_sps r.er_packed_sps
        (r.er_packed_sps /. r.er_boxed_sps))
    rows;
  (* Campaign wall time, 1 domain vs N domains, same work — and the
     determinism contract checked on the real workload: the aggregated
     campaigns must be structurally identical. PARRUN_DOMAINS overrides
     the parallel leg's domain count, so CI can pin it. *)
  let domains_n =
    match Parrun.env_domains () with
    | Some d when d >= 2 -> d
    | Some _ | None -> max 2 (min 4 (Domain.recommended_domain_count ()))
  in
  (* Enough seeds that each leg runs tens of milliseconds: the pool's
     fixed cost (one wake-up per scenario) must be amortized, not
     measured. What remains on a single-core host is the genuine cost of
     two domains time-slicing one CPU (stop-the-world minor-GC syncs);
     speedup > 1 requires actual cores. *)
  let seeds = if smoke then 5 else 500
  and max_steps = if smoke then 2_000 else 10_000 in
  let campaign domains =
    let t0 = Unix.gettimeofday () in
    let cs =
      List.map
        (Faultlab.run ~seeds ~max_steps ~domains)
        (Faultlab.default_scenarios ())
    in
    (cs, Unix.gettimeofday () -. t0)
  in
  (* One discarded warm-up starts the domain pool and faults the kernels'
     tables in; then the 1-domain and N-domain legs alternate and each
     keeps its fastest rep, so drift (GC, thermal) hits both sides
     symmetrically instead of penalizing whichever leg ran last. *)
  ignore (campaign domains_n);
  let reps = if smoke then 2 else 3 in
  let seq = ref [] and par = ref [] in
  let wall_1 = ref infinity and wall_n = ref infinity in
  for _ = 1 to reps do
    let cs, w1 = campaign 1 in
    if w1 < !wall_1 then begin
      wall_1 := w1;
      seq := cs
    end;
    let cp, wn = campaign domains_n in
    if wn < !wall_n then begin
      wall_n := wn;
      par := cp
    end
  done;
  let seq = !seq and par = !par in
  let wall_1 = !wall_1 and wall_n = !wall_n in
  let identical = seq = par in
  Printf.printf
    "  campaign (%d seeds): %.3f s at 1 domain, %.3f s at %d domains \
     (%.2fx), identical: %b\n"
    seeds wall_1 wall_n domains_n (wall_1 /. wall_n) identical;
  Bench_json.to_file "BENCH_engine.json" (fun oc ->
  Bench_json.write ~benchmark:"engine"
    ~host:(Bench_json.host ~domains:domains_n ())
    oc
    (fun oc ->
      Printf.fprintf oc "  \"fixtures\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    { \"name\": %S, \"schedule\": %S, \"steps_per_rep\": %d,\n\
            \      \"boxed_steps_per_sec\": %.0f, \"packed_steps_per_sec\": \
             %.0f, \"speedup\": %.2f }%s\n"
            r.er_name r.er_schedule r.er_steps r.er_boxed_sps r.er_packed_sps
            (r.er_packed_sps /. r.er_boxed_sps)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"campaign\": { \"seeds\": %d, \"max_steps\": %d, \"domains\": \
         %d,\n\
        \    \"wall_s_domains_1\": %.4f, \"wall_s_domains_n\": %.4f, \
         \"speedup\": %.2f, \"identical\": %b }\n"
        seeds max_steps domains_n wall_1 wall_n (wall_1 /. wall_n) identical));
  Printf.printf "  [wrote BENCH_engine.json]\n"

(* ------------------------------------------------------------------ *)
(* Event-driven simulator — machine-readable BENCH_sim.json            *)
(* ------------------------------------------------------------------ *)

let run_sim_bench () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf
    "Event-driven continuous-time simulator (events/sec vs network size)\n";
  Printf.printf "%s\n" (String.make 78 '-');
  let contagion = Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 } in
  let const02 = (Eventsim.Const 0.2, "const:0.2")
  and exp02 = (Eventsim.Exp 0.2, "exp:0.2") in
  (* VmHWM is monotone over the process lifetime, so rows run in
     ascending node count: each row's peak_rss_kb then reflects its own
     instance rather than an earlier, larger one. *)
  let rows =
    if smoke then
      [
        (contagion, Simlab.Ring, const02, 10_000, 5.0);
        (Simlab.Spp_gadget, Simlab.Ring, const02, 10_000, 5.0);
        (contagion, Simlab.Ring, const02, 100_000, 2.0);
        (contagion, Simlab.Ring, const02, 1_000_000, 1.0);
        (Simlab.Spp_gadget, Simlab.Ring, const02, 1_000_000, 1.0);
      ]
    else
      [
        (contagion, Simlab.Ring, const02, 10_000, 50.0);
        (Simlab.Spp_gadget, Simlab.Ring, const02, 10_000, 50.0);
        (contagion, Simlab.Ring, const02, 100_000, 20.0);
        (contagion, Simlab.Erdos_renyi 4.0, exp02, 100_000, 10.0);
        (contagion, Simlab.Ring, const02, 1_000_000, 5.0);
        (Simlab.Spp_gadget, Simlab.Ring, const02, 1_000_000, 5.0);
      ]
  in
  let measured =
    List.map
      (fun (scenario, topology, (latency, lat_name), nodes, horizon) ->
        let inst =
          Simlab.build scenario topology ~graph_seed:42 ~nodes ~rate:1.0
            ~latency ~faults:Eventsim.no_faults
        in
        let t0 = Unix.gettimeofday () in
        let r = inst.Simlab.run ~seed:1 ~horizon in
        let wall = Unix.gettimeofday () -. t0 in
        let rss = Bench_json.peak_rss_kb () in
        let evs =
          if wall > 0. then float_of_int r.Simlab.events /. wall else 0.
        in
        Printf.printf
          "  %-16s %-10s %-10s n=%-8d h=%-4g %9d ev %7.2fs %10.0f ev/s \
           rss=%dkB\n"
          (Simlab.scenario_name scenario)
          (Simlab.topology_name topology)
          lat_name inst.Simlab.nodes horizon r.Simlab.events wall evs rss;
        (scenario, topology, lat_name, inst, horizon, r, wall, evs, rss))
      rows
  in
  (* Cross-domain determinism: the same campaign sharded over one domain
     and over PARRUN_DOMAINS must produce identical result arrays (CI's
     grep for "identical": false watches this flag). Losses, duplicates
     and variable latencies are all in play so every RNG stream is
     exercised. *)
  let det_inst =
    Simlab.build contagion Simlab.Ring ~graph_seed:42 ~nodes:2_000 ~rate:1.0
      ~latency:(Eventsim.Exp 0.2)
      ~faults:{ Eventsim.no_faults with loss = 0.05; dup = 0.02 }
  in
  let det_runs = 8 and det_horizon = 10.0 in
  let base =
    Simlab.campaign ~domains:1 det_inst ~seed0:1 ~runs:det_runs
      ~horizon:det_horizon
  in
  let domains_n = max 2 (env_domains ()) in
  let sharded =
    Simlab.campaign ~domains:domains_n det_inst ~seed0:1 ~runs:det_runs
      ~horizon:det_horizon
  in
  (* The same sweep through the campaign orchestrator (horizon-sliced
     deadline polling, matrix-order merge) must also be bit-identical. *)
  let matrix_results, cells =
    Simlab.run_matrix ~domains:domains_n det_inst ~seed0:1 ~runs:det_runs
      ~horizon:det_horizon
  in
  let identical =
    base = sharded && matrix_results = Array.map Option.some base
  in
  Printf.printf
    "  campaign sharded over %d domains identical: %b (orchestrated: %d ok, \
     %d timeout, %d error)\n"
    domains_n identical cells.Campaign.ok cells.Campaign.timeout
    cells.Campaign.error;
  (* Single-core throughput target at 10^5 nodes (constant latency). *)
  let target_nodes = 100_000 and target_evs = 5_000_000.0 in
  let achieved =
    List.fold_left
      (fun acc (scenario, _, lat, inst, _, _, _, evs, _) ->
        match scenario with
        | Simlab.Contagion _
          when inst.Simlab.nodes = target_nodes && lat = "const:0.2" ->
            max acc evs
        | _ -> acc)
      0.0 measured
  in
  Bench_json.to_file "BENCH_sim.json" (fun file_oc ->
      Bench_json.write ~benchmark:"sim"
        ~host:(Bench_json.host ~domains:1 ())
        ~cells:(cell_triple cells) file_oc
        (fun oc ->
      Printf.fprintf oc "  \"rows\": [\n";
      List.iteri
        (fun i (scenario, topology, lat, inst, horizon, r, wall, evs, rss) ->
          Printf.fprintf oc
            "    { \"scenario\": %S, \"topology\": %S, \"latency\": %S, \
             \"nodes\": %d, \"edges\": %d, \"horizon\": %g, \"seed\": 1, \
             \"events\": %d, \"activations\": %d, \"deliveries\": %d, \
             \"metric\": %d, \"wall_s\": %.4f, \"events_per_sec\": %.0f, \
             \"peak_rss_kb\": %d }%s\n"
            (Simlab.scenario_name scenario)
            (Simlab.topology_name topology)
            lat inst.Simlab.nodes inst.Simlab.edges horizon r.Simlab.events
            r.Simlab.activations r.Simlab.deliveries r.Simlab.metric wall
            evs rss
            (if i = List.length measured - 1 then "" else ","))
        measured;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"target\": { \"nodes\": %d, \"min_events_per_sec\": %.0f, \
         \"achieved_events_per_sec\": %.0f, \"met\": %b },\n"
        target_nodes target_evs achieved (achieved >= target_evs);
      Printf.fprintf oc
        "  \"campaign\": { \"runs\": %d, \"domains\": %d, \"identical\": \
         %b }\n"
        det_runs domains_n identical));
  Printf.printf "  [wrote BENCH_sim.json]\n"

(* ------------------------------------------------------------------ *)
(* Chaos + differential-fuzz bench: storm resume identity and fuzzer   *)
(* sensitivity, reported in the same envelope so CI's                  *)
(* '"identical": false' grep guards both invariants.                   *)
(* ------------------------------------------------------------------ *)

let run_chaos_bench () =
  print_endline "\n== chaos storms and differential fuzzing ==";
  let rounds = if smoke then 2 else 4
  and clean_budget = if smoke then 40 else 200
  and mutant_budget = 30 in
  (* Storm every lab codec; each leg must merge identical after a clean
     resume (domains = 2 keeps the pool injection site live). *)
  let storm_seed = 2026 in
  let t0 = Unix.gettimeofday () in
  let reports = Chaoslab.run_storms ~domains:2 ~rounds ~seed:storm_seed () in
  let storm_wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (r : Chaoslab.leg_report) ->
      Printf.printf
        "  storm %-7s crashes %d  degraded %d  injections %-3d resume %s\n"
        r.Chaoslab.leg r.Chaoslab.crashes r.Chaoslab.degraded
        (Chaoslab.injected r.Chaoslab.injections)
        (if r.Chaoslab.identical then "identical" else "DIVERGED"))
    reports;
  (* Clean differential fuzz: zero real divergences expected. *)
  let t1 = Unix.gettimeofday () in
  let clean = Fuzz.run ~seed:42 ~budget:clean_budget () in
  let fuzz_wall = Unix.gettimeofday () -. t1 in
  Printf.printf
    "  fuzz clean: %d scenarios, %d comparisons, %d divergence(s)\n"
    clean.Fuzz.tried clean.Fuzz.comparisons
    (List.length clean.Fuzz.found);
  (* Sensitivity: each planted mutant must be found and shrink small. *)
  let mutants =
    List.map
      (fun m ->
        let rep = Fuzz.run ~mutant:m ~seed:7 ~budget:mutant_budget () in
        let min_size (d : Fuzz.divergence) =
          (d.Fuzz.scenario.Fuzz.nodes, d.Fuzz.scenario.Fuzz.steps)
        in
        let smallest =
          List.fold_left
            (fun acc (f : Fuzz.found) ->
              let c = min_size f.Fuzz.shrunk in
              match acc with Some b when b <= c -> acc | _ -> Some c)
            None rep.Fuzz.found
        in
        Printf.printf
          "  fuzz mutant %-13s found %d  mean shrink ratio %.3f%s\n"
          (Fuzz.mutant_name m)
          (List.length rep.Fuzz.found)
          rep.Fuzz.mean_shrink_ratio
          (match smallest with
          | Some (n, s) ->
              Printf.sprintf "  smallest witness %d nodes / %d steps" n s
          | None -> "");
        (m, rep, smallest))
      [ Fuzz.Stale_read; Fuzz.Dropped_write ]
  in
  let storms_ok =
    List.for_all (fun r -> r.Chaoslab.identical) reports
  and clean_ok = clean.Fuzz.found = []
  and mutants_ok =
    List.for_all (fun (_, rep, _) -> rep.Fuzz.found <> []) mutants
  in
  Bench_json.to_file "BENCH_chaos.json" (fun file_oc ->
      Bench_json.write ~benchmark:"chaos"
        ~host:(Bench_json.host ~domains:2 ())
        file_oc
        (fun oc ->
          Printf.fprintf oc
            "  \"storm\": { \"seed\": %d, \"rounds\": %d, \"wall_s\": %.3f, \
             \"legs\": [\n"
            storm_seed rounds storm_wall;
          List.iteri
            (fun i (r : Chaoslab.leg_report) ->
              Printf.fprintf oc
                "    { \"leg\": %S, \"crashes\": %d, \"degraded\": %d, \
                 \"injections\": %d, \"resume_identical\": %b }%s\n"
                r.Chaoslab.leg r.Chaoslab.crashes r.Chaoslab.degraded
                (Chaoslab.injected r.Chaoslab.injections)
                r.Chaoslab.identical
                (if i = List.length reports - 1 then "" else ","))
            reports;
          Printf.fprintf oc "  ] },\n";
          Printf.fprintf oc
            "  \"fuzz\": { \"seed\": %d, \"budget\": %d, \"comparisons\": \
             %d, \"divergences\": %d, \"wall_s\": %.3f },\n"
            clean.Fuzz.seed clean.Fuzz.budget clean.Fuzz.comparisons
            (List.length clean.Fuzz.found)
            fuzz_wall;
          Printf.fprintf oc "  \"mutants\": [\n";
          List.iteri
            (fun i (m, (rep : Fuzz.report), smallest) ->
              let n, s =
                match smallest with Some (n, s) -> (n, s) | None -> (-1, -1)
              in
              Printf.fprintf oc
                "    { \"mutant\": %S, \"found\": %d, \
                 \"mean_shrink_ratio\": %.4f, \"smallest_nodes\": %d, \
                 \"smallest_steps\": %d }%s\n"
                (Fuzz.mutant_name m)
                (List.length rep.Fuzz.found)
                rep.Fuzz.mean_shrink_ratio n s
                (if i = List.length mutants - 1 then "" else ","))
            mutants;
          Printf.fprintf oc "  ],\n";
          (* The one flag CI greps: false iff any invariant broke. *)
          Printf.fprintf oc "  \"identical\": %b\n"
            (storms_ok && clean_ok && mutants_ok)));
  Printf.printf "  [wrote BENCH_chaos.json]\n"

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  if Array.exists (String.equal "--checker-bench-only") Sys.argv then begin
    run_checker_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--faults-bench-only") Sys.argv then begin
    run_fault_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--engine-bench-only") Sys.argv then begin
    run_engine_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--netlab-bench-only") Sys.argv then begin
    run_netlab_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--byz-bench-only") Sys.argv then begin
    run_byz_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--sim-bench-only") Sys.argv then begin
    run_sim_bench ();
    exit 0
  end;
  if Array.exists (String.equal "--chaos-bench-only") Sys.argv then begin
    run_chaos_bench ();
    exit 0
  end;
  print_endline "Stateless Computation — experiment harness";
  print_endline "(Dolev, Erdmann, Lutz, Schapira, Zair; PODC 2017)";
  List.iter
    (fun (id, run) ->
      let start = Unix.gettimeofday () in
      run ();
      Printf.printf "  [%s completed in %.1fs]\n" id
        (Unix.gettimeofday () -. start))
    Experiments.all;
  List.iter
    (fun (id, run) ->
      let start = Unix.gettimeofday () in
      run ();
      Printf.printf "  [%s completed in %.1fs]\n" id
        (Unix.gettimeofday () -. start))
    Ablations.all;
  run_micro_benchmarks ();
  run_checker_bench ();
  run_fault_bench ();
  run_netlab_bench ();
  run_byz_bench ();
  run_engine_bench ();
  run_sim_bench ();
  run_chaos_bench ();
  Printf.printf "\nTotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
