(* Differential and certification tests for the adversarial channel layer
   (Netlab) and the bounded-adversary checker (Netcheck).

   The load-bearing contracts:
   - with a zero fault budget the channel steppers are bit-identical to
     the fault-free Engine and Kernel on randomized protocols x schedules;
   - one channel adversary, stepped through the boxed Engine's reaction
     and through the Kernel's, gives the same run at every budget (same
     seed, same faults);
   - Netcheck at k = 0 agrees with the plain exhaustive checker on the
     standard small instances, and its oscillation witnesses replay on
     the boxed engine;
   - campaigns and adversarial searches are identical for every domain
     count. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Parrun = Stateless_core.Parrun
module Adversary = Stateless_core.Adversary
module Clique_example = Stateless_core.Clique_example
module Checker = Stateless_checker.Checker
module Netlab = Stateless_netlab.Netlab
module Netcheck = Stateless_netlab.Netcheck
module Two_counter = Stateless_counter.Two_counter
module Proptest = Stateless_core.Proptest

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Extra domain counts from the environment (the CI matrix leg sets
   PARRUN_DOMAINS=4); determinism contracts must hold for any value. *)
let extra_domains =
  match Parrun.env_domains () with Some d -> [ d ] | None -> []

let domain_counts = [ 2; 4 ] @ extra_domains

(* Random protocols as in test_kernel.ml, from the shared generator with
   this suite's historical RNG constants. *)
let random_protocol seed =
  Proptest.random_protocol ~salt:0x0c4a11e5 ~graph_seed_mult:13 ~name:"chan"
    seed

let random_config = Proptest.random_config
let schedules_for seed n = Proptest.schedules_for ~offset:5 seed n
let config_eq = Proptest.config_eq

(* ------------------------------------------------------------------ *)
(* Zero-budget channels are the fault-free engines                     *)
(* ------------------------------------------------------------------ *)

(* Nonzero rates with a zero budget: the adversary may never act, so the
   rates must be invisible — this is the stronger form of the contract. *)
let idle_rates =
  Netlab.rates ~loss:0.4 ~delay:0.3 ~max_delay:3 ~dup:0.5 ~crash:0.5
    ~crash_len:2 ()

let zero_budget = { Netlab.k = 0; window = 3 }

let test_zero_budget_packed_matches_kernel () =
  for seed = 1 to 20 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    List.iter
      (fun schedule ->
        let steps = 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        let ch =
          Netlab.Packed.create (Kernel.create p ~input) p ~rates:idle_rates
            ~budget:zero_budget
            ~schedule ~seed ~init
        in
        Netlab.Packed.run ch ~steps;
        check
          (Printf.sprintf "no faults injected (seed %d)" seed)
          0
          (Netlab.Packed.faults_injected ch);
        if not (config_eq p expect (Netlab.Packed.config ch)) then
          Alcotest.failf "packed channel diverged (seed %d, %s)" seed
            schedule.Schedule.name)
      (schedules_for seed n)
  done

let test_zero_budget_boxed_matches_engine () =
  for seed = 1 to 20 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    List.iter
      (fun schedule ->
        let steps = 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        let ch =
          Netlab.Reference.create (Engine.Coded.create p ~input) p
            ~rates:idle_rates ~budget:zero_budget
            ~schedule ~seed ~init
        in
        Netlab.Reference.run ch ~steps;
        check
          (Printf.sprintf "no faults injected (seed %d)" seed)
          0
          (Netlab.Reference.faults_injected ch);
        if not (config_eq p expect (Netlab.Reference.config ch)) then
          Alcotest.failf "boxed channel diverged (seed %d, %s)" seed
            schedule.Schedule.name)
      (schedules_for seed n)
  done

(* ------------------------------------------------------------------ *)
(* Engine and Kernel reactions agree under one adversary, any budget   *)
(* ------------------------------------------------------------------ *)

let stormy_rates =
  Netlab.rates ~loss:0.3 ~delay:0.25 ~max_delay:3 ~dup:0.2 ~crash:0.15
    ~crash_len:2 ()

let test_boxed_packed_twins_under_faults () =
  for seed = 1 to 20 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    let budget = { Netlab.k = 3; window = 4 } in
    List.iter
      (fun schedule ->
        let packed =
          Netlab.Packed.create (Kernel.create p ~input) p ~rates:stormy_rates
            ~budget ~schedule
            ~seed:(seed + 100) ~init
        in
        let boxed =
          Netlab.Reference.create (Engine.Coded.create p ~input) p
            ~rates:stormy_rates ~budget ~schedule
            ~seed:(seed + 100) ~init
        in
        for s = 1 to 50 do
          Netlab.Packed.step packed;
          Netlab.Reference.step boxed;
          if
            not
              (config_eq p
                 (Netlab.Packed.config packed)
                 (Netlab.Reference.config boxed))
          then
            Alcotest.failf "twins diverged at step %d (seed %d, %s)" s seed
              schedule.Schedule.name
        done;
        check
          (Printf.sprintf "same fault count (seed %d)" seed)
          (Netlab.Packed.faults_injected packed)
          (Netlab.Reference.faults_injected boxed))
      (schedules_for seed n)
  done

let test_budget_caps_injected_faults () =
  let p, input, st = random_protocol 3 in
  let init = random_config p st in
  let budget = { Netlab.k = 2; window = 10 } in
  let ch =
    Netlab.Packed.create (Kernel.create p ~input) p ~rates:stormy_rates
      ~budget
      ~schedule:(Schedule.synchronous (Protocol.num_nodes p))
      ~seed:9 ~init
  in
  Netlab.Packed.run ch ~steps:100;
  let injected = Netlab.Packed.faults_injected ch in
  check_bool
    (Printf.sprintf "injected %d within 2 per 10-step window" injected)
    true
    (injected <= 2 * 10);
  check_bool "storm actually injected faults" true (injected > 0)

let test_rates_validation () =
  let invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () -> Netlab.rates ~loss:1.2 ());
  invalid (fun () -> Netlab.rates ~dup:(-0.1) ());
  invalid (fun () -> Netlab.rates ~loss:0.7 ~delay:0.5 ());
  invalid (fun () -> Netlab.rates ~max_delay:0 ());
  invalid (fun () -> Netlab.rates ~crash_len:0 ());
  invalid (fun () -> Netlab.check_budget { Netlab.k = -1; window = 1 });
  invalid (fun () -> Netlab.check_budget { Netlab.k = 0; window = 0 })

(* ------------------------------------------------------------------ *)
(* Netcheck at k = 0 is the plain checker                              *)
(* ------------------------------------------------------------------ *)

let kind = function
  | Netcheck.Stabilizing -> `St
  | Netcheck.Oscillating _ -> `Osc
  | Netcheck.Too_large _ -> `Big

let plain_kind = function
  | Checker.Stabilizing -> `St
  | Checker.Oscillating _ -> `Osc
  | Checker.Too_large _ -> `Big

let copy_ring_uni n = Proptest.copy_ring ~name:"copy-ring-uni" n

let agree_at_zero_budget name p ~input ~r =
  let budget = 100_000 in
  check_bool (name ^ " label verdicts agree") true
    (plain_kind (Checker.check_label p ~input ~r ~max_states:budget)
    = kind (Netcheck.check_label p ~input ~r ~k:0 ~window:1 ~max_states:budget));
  check_bool (name ^ " output verdicts agree") true
    (plain_kind (Checker.check_output p ~input ~r ~max_states:budget)
    = kind (Netcheck.check_output p ~input ~r ~k:0 ~window:1 ~max_states:budget))

let test_zero_budget_agrees_with_checker () =
  let two = Two_counter.make 3 in
  agree_at_zero_budget "example1 r=1" (Clique_example.make 3)
    ~input:(Clique_example.input 3) ~r:1;
  agree_at_zero_budget "example1 r=2" (Clique_example.make 3)
    ~input:(Clique_example.input 3) ~r:2;
  agree_at_zero_budget "copy-ring r=1" (copy_ring_uni 3)
    ~input:(Array.make 3 ()) ~r:1;
  agree_at_zero_budget "two-counter r=1" two.Two_counter.protocol
    ~input:(Two_counter.input two) ~r:1

(* The flagship budget-matters fact: example1 on K_3 label-1-stabilizes
   fault-free, but one fault per step lets the adversary keep reviving a
   hot edge the protocol then heals — protocol label changes forever. *)
let test_example1_budget_flips_verdict () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  (match Netcheck.check_label p ~input ~r:1 ~k:0 ~window:1 ~max_states:1_000 with
  | Netcheck.Stabilizing -> ()
  | _ -> Alcotest.fail "example1 must 1-stabilize at k=0");
  match Netcheck.check_label p ~input ~r:1 ~k:1 ~window:1 ~max_states:10_000 with
  | Netcheck.Oscillating w ->
      check_bool "witness has a fault step" true
        (List.exists (fun s -> s.Netcheck.fault <> None) (w.Netcheck.prefix @ w.Netcheck.cycle));
      check_bool "witness replays (boxed engine)" true
        (Netcheck.replay p ~input w);
      check_bool "witness replays (packed kernel)" true
        (Netcheck.replay_packed p ~input w)
  | Netcheck.Stabilizing -> Alcotest.fail "k=1 adversary must force oscillation"
  | Netcheck.Too_large { needed } -> Alcotest.failf "needs %d states" needed

let test_budget_windows_are_graded () =
  (* A longer recharge window weakens the adversary monotonically: any
     fault pattern legal at window w is legal at window w' <= w. Example1
     on K_3 at r=1 oscillates even on a 3-step window (one fault every 3
     steps keeps a hot edge alive), and the graph grows with the window. *)
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  match Netcheck.check_label p ~input ~r:1 ~k:1 ~window:3 ~max_states:10_000 with
  | Netcheck.Oscillating w ->
      check_bool "window-3 witness replays (boxed)" true
        (Netcheck.replay p ~input w);
      check_bool "window-3 witness replays (packed)" true
        (Netcheck.replay_packed p ~input w)
  | Netcheck.Stabilizing -> Alcotest.fail "k=1/w=3 still forces oscillation"
  | Netcheck.Too_large { needed } -> Alcotest.failf "needs %d states" needed

let test_copy_ring_outputs_immune_to_faults () =
  (* Every output of the copy ring is constantly 0: no fault pattern can
     make outputs diverge, even though labels churn forever. *)
  let p = copy_ring_uni 3 in
  let input = Array.make 3 () in
  (match Netcheck.check_output p ~input ~r:1 ~k:1 ~window:1 ~max_states:10_000 with
  | Netcheck.Stabilizing -> ()
  | Netcheck.Oscillating _ -> Alcotest.fail "constant outputs cannot oscillate"
  | Netcheck.Too_large { needed } -> Alcotest.failf "needs %d states" needed);
  match Netcheck.check_label p ~input ~r:1 ~k:1 ~window:1 ~max_states:10_000 with
  | Netcheck.Oscillating w ->
      check_bool "label witness replays (boxed)" true
        (Netcheck.replay p ~input w);
      check_bool "label witness replays (packed)" true
        (Netcheck.replay_packed p ~input w)
  | Netcheck.Stabilizing -> Alcotest.fail "copy ring labels rotate forever"
  | Netcheck.Too_large { needed } -> Alcotest.failf "needs %d states" needed

let test_witness_replay_roundtrip () =
  (* Every stored lasso must reproduce its divergence on both execution
     engines: the boxed Engine and the packed Kernel. Sweep the small
     random instances and every (k, window) that fits the budget. *)
  let found = ref 0 in
  for seed = 1 to 10 do
    let p, input, _ = random_protocol seed in
    if Protocol.num_nodes p <= 3 && Protocol.num_edges p <= 5 then
      List.iter
        (fun (k, window) ->
          match
            Netcheck.check_label p ~input ~r:1 ~k ~window
              ~max_states:500_000
          with
          | Netcheck.Oscillating w ->
              incr found;
              check_bool
                (Printf.sprintf "seed %d k=%d w=%d boxed replay" seed k window)
                true
                (Netcheck.replay p ~input w);
              check_bool
                (Printf.sprintf "seed %d k=%d w=%d packed replay" seed k window)
                true
                (Netcheck.replay_packed p ~input w)
          | _ -> ())
        [ (0, 1); (1, 1); (1, 3) ]
  done;
  check_bool "some lasso was exercised" true (!found > 0)

let test_netcheck_too_large () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  match Netcheck.check_label p ~input ~r:1 ~k:1 ~window:2 ~max_states:10 with
  | Netcheck.Too_large { needed } ->
      (* 64 labelings x 1 countdown x 2 budgets x 2 phases. *)
      check "needed" 256 needed
  | _ -> Alcotest.fail "expected Too_large"

(* ------------------------------------------------------------------ *)
(* Golden witnesses                                                    *)
(* ------------------------------------------------------------------ *)

(* Exact verdicts, witnesses (with their faults) and graph sizes, recorded
   before the certifiers' post-exploration passes were shared: any change
   to state ids, edge order or the lasso construction shows up here. *)
let show_steps steps =
  String.concat ";"
    (List.map
       (fun s ->
         String.concat "," (List.map string_of_int s.Netcheck.active)
         ^
         match s.Netcheck.fault with
         | None -> ""
         | Some f -> Printf.sprintf "/%d:%d" f.Netcheck.edge f.Netcheck.code)
       steps)

let show_verdict = function
  | Netcheck.Stabilizing -> "stabilizing"
  | Netcheck.Too_large { needed } -> Printf.sprintf "too_large %d" needed
  | Netcheck.Oscillating w ->
      Printf.sprintf "oscillating init=%d prefix=[%s] cycle=[%s]"
        w.Netcheck.init_code (show_steps w.Netcheck.prefix)
        (show_steps w.Netcheck.cycle)

let test_golden_witnesses () =
  let golden name p ~input run expect =
    let v = run p ~input in
    let stats =
      match Netcheck.last_stats () with
      | None -> "no stats"
      | Some s ->
          Printf.sprintf "states=%d edges=%d" s.Netcheck.states
            s.Netcheck.edges
    in
    Alcotest.(check string) name expect (show_verdict v ^ " | " ^ stats);
    match v with
    | Netcheck.Oscillating w ->
        check_bool (name ^ " replays (boxed)") true
          (Netcheck.replay p ~input w);
        check_bool (name ^ " replays (packed)") true
          (Netcheck.replay_packed p ~input w)
    | _ -> ()
  in
  let k3 = Clique_example.make 3 and k3_in = Clique_example.input 3 in
  golden "clique_k3 output k=1 w=1" k3 ~input:k3_in
    (Netcheck.check_output ~r:1 ~k:1 ~window:1 ~max_states:100_000)
    "oscillating init=1 prefix=[] cycle=[0,1,2/2:0;0,1,2/5:0;0,1,2/0:0;0,1,2/4:0] | states=64 edges=448";
  golden "clique_k3 label k=1 w=3" k3 ~input:k3_in
    (Netcheck.check_label ~r:1 ~k:1 ~window:3 ~max_states:100_000)
    "oscillating init=31 prefix=[] cycle=[0,1,2;0,1,2;0,1,2/0:0] | states=132 edges=594";
  golden "copy_ring_3 label k=1 w=1" (copy_ring_uni 3) ~input:(Array.make 3 ())
    (Netcheck.check_label ~r:1 ~k:1 ~window:1 ~max_states:100_000)
    "oscillating init=1 prefix=[] cycle=[0,1,2;0,1,2;0,1,2] | states=8 edges=32"

(* ------------------------------------------------------------------ *)
(* Adversary: witnesses verify, search is domain-deterministic         *)
(* ------------------------------------------------------------------ *)

(* The copy ring rotates any non-uniform labeling forever, so random
   (labeling, 4-fair periodic schedule) samples find oscillations fast. *)
let find_oscillation_ring domains =
  Adversary.find_oscillation ~domains (copy_ring_uni 4)
    ~input:(Array.make 4 ()) ~r:4 ~attempts:100 ~period:8 ~seed:1
    ~max_steps:400

let test_adversary_witness_verifies () =
  match find_oscillation_ring 1 with
  | None -> Alcotest.fail "expected an oscillation witness"
  | Some w ->
      check_bool "witness re-verifies" true
        (Adversary.verify (copy_ring_uni 4) ~input:(Array.make 4 ()) w)

let test_adversary_identical_across_domains () =
  match find_oscillation_ring 1 with
  | None -> Alcotest.fail "expected an oscillation witness"
  | Some base ->
      List.iter
        (fun domains ->
          match find_oscillation_ring domains with
          | None -> Alcotest.failf "no witness at %d domains" domains
          | Some w ->
              check_bool
                (Printf.sprintf "same witness at %d domains" domains)
                true
                (w.Adversary.init = base.Adversary.init
                && w.Adversary.entered = base.Adversary.entered
                && w.Adversary.period = base.Adversary.period))
        domain_counts

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let small_levels =
  [ Netlab.rates (); Netlab.rates ~loss:0.3 ~delay:0.2 ~dup:0.1 ~crash:0.1 () ]

let small_budget = { Netlab.k = 2; window = 5 }

let run_campaign ?(domains = 1) sc =
  Netlab.run ~levels:small_levels ~seeds:4 ~storm:60 ~max_steps:5_000 ~domains
    ~budget:small_budget sc

let test_campaign_statistics_well_formed () =
  let c = run_campaign (Netlab.example1 ~n:3 ()) in
  check "two levels" 2 (List.length c.Netlab.levels);
  check "runs per level" 4 c.Netlab.runs_per_level;
  (match c.Netlab.levels with
  | clean :: _ ->
      (* The zero-rate level has no degradation and instant recovery. *)
      check "clean level recovers everywhere" clean.Netlab.runs
        clean.Netlab.recovered;
      check_bool "clean level undegraded" true
        (clean.Netlab.mean_degraded = 0.0)
  | [] -> Alcotest.fail "missing levels");
  List.iter
    (fun s ->
      check "runs" 4 s.Netlab.runs;
      check_bool "recovered within runs" true
        (s.Netlab.recovered >= 0 && s.Netlab.recovered <= s.Netlab.runs);
      check_bool "degradation is a fraction" true
        (s.Netlab.mean_degraded >= 0.0 && s.Netlab.mean_degraded <= 1.0);
      if s.Netlab.recovered > 0 then begin
        check_bool "p50 <= p95" true (s.Netlab.p50 <= s.Netlab.p95);
        check_bool "p95 <= worst" true (s.Netlab.p95 <= s.Netlab.worst)
      end)
    c.Netlab.levels

let campaign_eq a b =
  a.Netlab.scenario_name = b.Netlab.scenario_name
  && a.Netlab.schedule = b.Netlab.schedule
  && a.Netlab.budget_k = b.Netlab.budget_k
  && a.Netlab.budget_window = b.Netlab.budget_window
  && a.Netlab.levels = b.Netlab.levels

let test_campaign_identical_across_domains () =
  List.iter
    (fun sc ->
      let base = run_campaign ~domains:1 sc in
      List.iter
        (fun domains ->
          check_bool
            (Printf.sprintf "%s identical at %d domains" sc.Netlab.name
               domains)
            true
            (campaign_eq base (run_campaign ~domains sc)))
        domain_counts)
    [ Netlab.example1 ~n:3 (); Netlab.d_counter ~n:3 ~d:4 () ]

let test_scenarios_by_name () =
  List.iter
    (fun name ->
      match Netlab.scenario_by_name name with
      | Some _ -> ()
      | None -> Alcotest.fail ("unknown scenario " ^ name))
    Netlab.scenario_names;
  check_bool "unknown rejected" true (Netlab.scenario_by_name "nope" = None)

let test_json_smoke () =
  let c = run_campaign (Netlab.example1 ~n:3 ()) in
  let path = Filename.temp_file "netlab" ".json" in
  let oc = open_out path in
  Netlab.write_json
    ~certification:
      [ "{ \"instance\": \"example1_k3\", \"verdict\": \"oscillating\" }" ]
    oc [ c ];
  close_out oc;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions benchmark" true (contains "\"benchmark\": \"netlab\"");
  check_bool "mentions campaigns" true (contains "\"campaigns\"");
  check_bool "mentions levels" true (contains "\"levels\"");
  check_bool "mentions certification" true (contains "\"certification\"");
  check_bool "mentions degradation" true (contains "\"mean_degraded_fraction\"")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_netlab"
    [
      ( "zero budget",
        [
          Alcotest.test_case "packed = kernel" `Quick
            test_zero_budget_packed_matches_kernel;
          Alcotest.test_case "boxed = engine" `Quick
            test_zero_budget_boxed_matches_engine;
        ] );
      ( "channel",
        [
          Alcotest.test_case "boxed/packed twins under faults" `Quick
            test_boxed_packed_twins_under_faults;
          Alcotest.test_case "budget caps injections" `Quick
            test_budget_caps_injected_faults;
          Alcotest.test_case "rates validation" `Quick test_rates_validation;
        ] );
      ( "netcheck",
        [
          Alcotest.test_case "k=0 agrees with checker" `Quick
            test_zero_budget_agrees_with_checker;
          Alcotest.test_case "example1 verdict flips at k=1" `Quick
            test_example1_budget_flips_verdict;
          Alcotest.test_case "window-3 adversary still wins" `Quick
            test_budget_windows_are_graded;
          Alcotest.test_case "copy-ring outputs immune" `Quick
            test_copy_ring_outputs_immune_to_faults;
          Alcotest.test_case "witness replay roundtrip" `Quick
            test_witness_replay_roundtrip;
          Alcotest.test_case "budget exceeded" `Quick test_netcheck_too_large;
          Alcotest.test_case "golden witnesses" `Quick test_golden_witnesses;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "witness verifies" `Quick
            test_adversary_witness_verifies;
          Alcotest.test_case "identical across domains" `Quick
            test_adversary_identical_across_domains;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "statistics well-formed" `Quick
            test_campaign_statistics_well_formed;
          Alcotest.test_case "identical across domains" `Quick
            test_campaign_identical_across_domains;
          Alcotest.test_case "scenarios by name" `Quick test_scenarios_by_name;
          Alcotest.test_case "json smoke" `Quick test_json_smoke;
        ] );
    ]
