(* Tests for the fault catalogue (Fault_model), adversarial corruption,
   the exact worst-case-recovery checker, and the fault-recovery campaign
   harness (Faultlab). The checker and the engine serve as each other's
   differential oracle here: on instances small enough to enumerate,
   [Checker.worst_case_recovery] must equal the brute-force maximum of
   [Engine.output_stabilization_time] over every initial labeling. *)

module Builders = Stateless_graph.Builders
module Digraph = Stateless_graph.Digraph
module Checker = Stateless_checker.Checker
module Faultlab = Stateless_faultlab.Faultlab
module Feedback = Stateless_games.Feedback
module D_counter = Stateless_counter.D_counter
open Stateless_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Bool labels make structured faults deterministic: a redraw that must
   differ from the old label can only flip it. *)
let example1_3 = Clique_example.make 3
let unit3 = Clique_example.input 3

let member e arr = Array.exists (fun e' -> e' = e) arr

(* ------------------------------------------------------------------ *)
(* Fault catalogue                                                     *)
(* ------------------------------------------------------------------ *)

let test_targeted_scrambles_neighborhood () =
  let p = example1_3 in
  let g = p.Protocol.graph in
  let config = Protocol.uniform_config p false in
  let damaged = Fault.inject p ~seed:11 (Fault_model.Targeted { nodes = [ 0 ] }) config in
  for e = 0 to Protocol.num_edges p - 1 do
    let incident =
      member e (Digraph.out_edges g 0) || member e (Digraph.in_edges g 0)
    in
    check_bool
      (Printf.sprintf "edge %d" e)
      incident
      (damaged.Protocol.labels.(e) <> config.Protocol.labels.(e))
  done

let test_messages_corrupts_out_edges_only () =
  let p = example1_3 in
  let g = p.Protocol.graph in
  let config = Protocol.uniform_config p false in
  let damaged = Fault.inject p ~seed:3 (Fault_model.Messages { nodes = [ 1 ] }) config in
  for e = 0 to Protocol.num_edges p - 1 do
    check_bool
      (Printf.sprintf "edge %d" e)
      (member e (Digraph.out_edges g 1))
      (damaged.Protocol.labels.(e) <> config.Protocol.labels.(e))
  done

let test_crash_relabels_to_junk () =
  let p = example1_3 in
  let g = p.Protocol.graph in
  let config = Protocol.uniform_config p false in
  let damaged =
    Fault.inject p ~seed:0 (Fault_model.Crash { nodes = [ 2 ]; junk = 1 }) config
  in
  for e = 0 to Protocol.num_edges p - 1 do
    if member e (Digraph.out_edges g 2) then
      check_bool (Printf.sprintf "edge %d junk" e) true
        damaged.Protocol.labels.(e)
    else
      check_bool
        (Printf.sprintf "edge %d untouched" e)
        false damaged.Protocol.labels.(e)
  done

let test_inject_is_deterministic () =
  let p = example1_3 in
  let config = Protocol.uniform_config p true in
  let fault = Fault_model.Uniform { fraction = 0.6 } in
  let a = Fault.inject p ~seed:77 fault config in
  let b = Fault.inject p ~seed:77 fault config in
  check_bool "same seed same damage" true
    (String.equal (Protocol.config_key p a) (Protocol.config_key p b))

let test_inject_rejects_bad_arguments () =
  let p = example1_3 in
  let config = Protocol.uniform_config p false in
  let invalid fault =
    match Fault.inject p ~seed:0 fault config with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (Fault_model.Targeted { nodes = [] });
  invalid (Fault_model.Targeted { nodes = [ 3 ] });
  invalid (Fault_model.Messages { nodes = [ -1 ] });
  invalid (Fault_model.Crash { nodes = [ 0 ]; junk = 2 });
  invalid (Fault_model.Uniform { fraction = 1.5 })

let test_fault_names () =
  Alcotest.(check string)
    "uniform" "uniform:0.25"
    (Fault_model.name (Fault_model.Uniform { fraction = 0.25 }));
  Alcotest.(check string)
    "crash" "crash:0,1->3"
    (Fault_model.name (Fault_model.Crash { nodes = [ 0; 1 ]; junk = 3 }))

let test_corrupt_full_fraction_changes_every_label () =
  let p = example1_3 in
  let config = Protocol.uniform_config p false in
  for seed = 1 to 10 do
    let damaged = Fault.corrupt p ~seed ~fraction:1.0 config in
    Array.iteri
      (fun e l ->
        check_bool (Printf.sprintf "seed %d edge %d" seed e) true
          (l <> config.Protocol.labels.(e)))
      damaged.Protocol.labels
  done

let test_corrupt_rate_tracks_fraction () =
  (* Every corrupted label now differs from the old one, so the number of
     changed positions is Binomial(m, fraction); over many seeds the mean
     must sit near fraction * m. *)
  let p = Generic.make (Builders.clique 4) (fun _ -> false) in
  let m = Protocol.num_edges p in
  let config = Protocol.uniform_config p (Array.make 5 false) in
  let seeds = 200 in
  let total = ref 0 in
  for seed = 1 to seeds do
    let damaged = Fault.corrupt p ~seed ~fraction:0.5 config in
    for e = 0 to m - 1 do
      if damaged.Protocol.labels.(e) <> config.Protocol.labels.(e) then
        incr total
    done
  done;
  let mean = float_of_int !total /. float_of_int (seeds * m) in
  check_bool
    (Printf.sprintf "mean rate %.3f near 0.5" mean)
    true
    (mean > 0.4 && mean < 0.6)

(* [Fault.corrupt_codes] must write the codes of exactly the labeling
   [Fault.corrupt] returns — same draws, hence same labels — on every
   campaign label space, plus a singleton space where no code is drawn. *)
let test_corrupt_codes_matches_boxed () =
  let check_space : type x l.
      string -> (x, l) Protocol.t -> l Protocol.config -> unit =
   fun name p config ->
    let space = p.Protocol.space in
    let card = space.Label.card in
    let src = Array.map space.Label.encode config.Protocol.labels in
    List.iter
      (fun fraction ->
        for seed = 1 to 40 do
          let boxed = Fault.corrupt p ~seed ~fraction config in
          let expect = Array.map space.Label.encode boxed.Protocol.labels in
          let dst = Array.make (Array.length src) (-1) in
          Fault.corrupt_codes ~card ~seed ~fraction ~src ~dst;
          Alcotest.(check (array int))
            (Printf.sprintf "%s fraction %g seed %d" name fraction seed)
            expect dst;
          let inplace = Array.copy src in
          Fault.corrupt_codes ~card ~seed ~fraction ~src:inplace ~dst:inplace;
          Alcotest.(check (array int))
            (Printf.sprintf "%s in place, fraction %g seed %d" name fraction
               seed)
            expect inplace
        done)
      [ 0.0; 0.1; 0.5; 1.0 ]
  in
  let e1 = Clique_example.make 4 in
  check_space "example1" e1 (Clique_example.oscillation_init e1);
  let dc = D_counter.make ~n:5 ~d:8 () in
  let pd = D_counter.protocol dc in
  check_space "d_counter" pd
    (Engine.run pd ~input:(D_counter.input dc)
       ~init:(Protocol.uniform_config pd (pd.Protocol.space.Label.decode 0))
       ~schedule:(Schedule.synchronous 5) ~steps:(D_counter.burn_in dc));
  let osc = Feedback.ring_oscillator 5 in
  check_space "oscillator" osc
    (Protocol.config_of_labels osc [| true; false; true; false; true |]);
  let single =
    {
      Protocol.name = "singleton";
      graph = Builders.ring_uni 3;
      space = Label.int 1;
      react = (fun _ () _ -> ([| 0 |], 0));
    }
  in
  check_space "card 1" single (Protocol.uniform_config single 0);
  Alcotest.check_raises "fraction out of range"
    (Invalid_argument "Fault_model.uniform_codes: fraction must be in [0, 1]")
    (fun () ->
      Fault.corrupt_codes ~card:2 ~seed:1 ~fraction:1.5 ~src:[| 0 |]
        ~dst:[| 0 |])

(* ------------------------------------------------------------------ *)
(* Adversarial corruption                                              *)
(* ------------------------------------------------------------------ *)

let test_adversarial_matches_brute_force () =
  let p = example1_3 in
  let schedule = Schedule.synchronous 3 in
  let config = Protocol.uniform_config p false in
  (* k = 1 over bool labels: the candidates are exactly "flip one edge". *)
  let brute =
    List.init (Protocol.num_edges p) (fun e ->
        let labels = Array.copy config.Protocol.labels in
        labels.(e) <- not labels.(e);
        Engine.output_stabilization_time p ~input:unit3
          ~init:(Protocol.config_of_labels p labels)
          ~schedule ~max_steps:200)
  in
  let worst =
    List.fold_left
      (fun acc t ->
        match (acc, t) with
        | None, _ | _, None -> None
        | Some a, Some b -> Some (max a b))
      (Some 0) brute
  in
  let adv =
    Fault.adversarial_corruption p ~input:unit3 ~schedule ~k:1 ~max_steps:200
      config
  in
  check_bool "exhaustive" true adv.Fault.adv_exhaustive;
  Alcotest.(check (option int)) "worst recovery" worst adv.Fault.adv_recovery;
  check "one edge" 1 (List.length adv.Fault.adv_edges);
  (* The returned damaged configuration must actually attain the bound. *)
  Alcotest.(check (option int))
    "witness attains it" worst
    (Engine.output_stabilization_time p ~input:unit3
       ~init:adv.Fault.adv_config ~schedule ~max_steps:200)

let test_adversarial_limit_flags_incomplete () =
  let p = example1_3 in
  let adv =
    Fault.adversarial_corruption ~limit:2 p ~input:unit3
      ~schedule:(Schedule.synchronous 3) ~k:1 ~max_steps:200
      (Protocol.uniform_config p false)
  in
  check_bool "not exhaustive" false adv.Fault.adv_exhaustive

let test_adversarial_rejects_bad_k () =
  let p = example1_3 in
  let config = Protocol.uniform_config p false in
  match
    Fault.adversarial_corruption p ~input:unit3
      ~schedule:(Schedule.synchronous 3) ~k:0 ~max_steps:10 config
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Exact worst-case recovery vs. brute-force simulation                *)
(* ------------------------------------------------------------------ *)

let brute_force_worst p ~input ~n ~max_steps =
  let count = Option.get (Protocol.labelings_count p) in
  let worst = ref (-1) and witness = ref 0 and diverged = ref None in
  for code = 0 to count - 1 do
    match
      Engine.output_stabilization_time p ~input
        ~init:(Protocol.decode_config p code)
        ~schedule:(Schedule.synchronous n) ~max_steps
    with
    | Some t -> if t > !worst then (worst := t; witness := code)
    | None -> if !diverged = None then diverged := Some code
  done;
  (!worst, !witness, !diverged)

let test_worst_case_recovery_example1 () =
  (* The acceptance differential: on K_3 (64 labelings) the checker's exact
     answer must equal the brute-force maximum over every corrupted start. *)
  let p = example1_3 in
  let worst, _, diverged =
    brute_force_worst p ~input:unit3 ~n:3 ~max_steps:500
  in
  Alcotest.(check (option int)) "no diverging start" None diverged;
  match Checker.worst_case_recovery p ~input:unit3 ~max_states:100 with
  | Checker.Worst_recovery { steps; witness_code } ->
      check "matches brute force" worst steps;
      Alcotest.(check (option int))
        "witness attains it" (Some steps)
        (Engine.output_stabilization_time p ~input:unit3
           ~init:(Protocol.decode_config p witness_code)
           ~schedule:(Schedule.synchronous 3) ~max_steps:500)
  | Checker.Never_settles _ -> Alcotest.fail "example1 settles synchronously"
  | Checker.Recovery_too_large _ -> Alcotest.fail "64 states fit the budget"

let copy_ring n = Stateless_core.Proptest.copy_ring n

let test_worst_case_recovery_copy_ring () =
  (* Labels rotate forever from non-uniform labelings, but every output is
     constantly 0: outputs are settled from step 0 everywhere. The checker
     must agree with the brute-forced engine on all 16 labelings. *)
  let p = copy_ring 4 in
  let input = Array.make 4 () in
  let worst, _, diverged = brute_force_worst p ~input ~n:4 ~max_steps:200 in
  Alcotest.(check (option int)) "no diverging start" None diverged;
  check "outputs settled immediately" 0 worst;
  match Checker.worst_case_recovery p ~input ~max_states:100 with
  | Checker.Worst_recovery { steps; _ } -> check "checker agrees" 0 steps
  | _ -> Alcotest.fail "expected Worst_recovery"

let test_worst_case_recovery_oscillator () =
  (* The odd ring oscillator has no stable labeling and its outputs flip
     forever under the synchronous schedule: the checker must report
     Never_settles, and the engine must confirm the witness. *)
  let p = Feedback.ring_oscillator 3 in
  let input = Array.make 3 () in
  match Checker.worst_case_recovery p ~input ~max_states:100 with
  | Checker.Never_settles { init_code } ->
      Alcotest.(check (option int))
        "engine agrees on witness" None
        (Engine.output_stabilization_time p ~input
           ~init:(Protocol.decode_config p init_code)
           ~schedule:(Schedule.synchronous 3) ~max_steps:500)
  | Checker.Worst_recovery _ -> Alcotest.fail "oscillator cannot settle"
  | Checker.Recovery_too_large _ -> Alcotest.fail "8 states fit the budget"

let test_worst_case_recovery_budget () =
  match Checker.worst_case_recovery example1_3 ~input:unit3 ~max_states:10 with
  | Checker.Recovery_too_large { needed } -> check "needed" 64 needed
  | _ -> Alcotest.fail "expected Recovery_too_large"

(* ------------------------------------------------------------------ *)
(* Recovery on the paper's fixtures                                    *)
(* ------------------------------------------------------------------ *)

let test_example1_recovers () =
  let p = Clique_example.make 4 in
  let init = Clique_example.oscillation_init p in
  for seed = 1 to 5 do
    match
      Fault.recovery_time p ~input:(Clique_example.input 4) ~init
        ~schedule:(Schedule.synchronous 4) ~seed ~fraction:0.5 ~max_steps:200
    with
    | Some (_, recovery) ->
        check_bool
          (Printf.sprintf "seed %d fast" seed)
          true (recovery <= 5)
    | None -> Alcotest.fail "example1 must re-stabilize synchronously"
  done

let test_nor_latch_recovers_round_robin () =
  (* Metastability rules out guarantees under adversarial schedules, but the
     round-robin schedule always re-settles the latch into one of its two
     stable states after corruption. *)
  let p = Feedback.nor_latch () in
  let input = [| false; false |] in
  let init = Protocol.uniform_config p false in
  for seed = 1 to 5 do
    match
      Fault.recovery_time p ~input ~init ~schedule:(Schedule.round_robin 2)
        ~seed ~fraction:1.0 ~max_steps:100
    with
    | Some (_, recovery) ->
        check_bool (Printf.sprintf "seed %d bounded" seed) true (recovery <= 4)
    | None -> Alcotest.fail "latch must re-settle under round-robin"
  done

let test_d_counter_relocks () =
  let sc = Faultlab.d_counter ~n:3 ~d:4 () in
  for seed = 1 to 3 do
    match sc.Faultlab.recover ~fraction:1.0 ~seed ~max_steps:2000 with
    | Some t -> check_bool (Printf.sprintf "seed %d" seed) true (t >= 0)
    | None -> Alcotest.fail "counter must re-lock"
  done

(* ------------------------------------------------------------------ *)
(* Campaign harness                                                    *)
(* ------------------------------------------------------------------ *)

let test_campaign_statistics_well_formed () =
  let c =
    Faultlab.run
      ~fractions:[ 0.5; 1.0 ]
      ~seeds:5 ~max_steps:2000
      (Faultlab.example1 ~n:3 ())
  in
  check "two rows" 2 (List.length c.Faultlab.stats);
  check "runs per fraction" 5 c.Faultlab.runs_per_fraction;
  List.iter
    (fun s ->
      check "runs" 5 s.Faultlab.runs;
      check_bool "recovered within runs" true
        (s.Faultlab.recovered >= 0 && s.Faultlab.recovered <= s.Faultlab.runs);
      if s.Faultlab.recovered > 0 then begin
        check_bool "p50 <= p95" true (s.Faultlab.p50 <= s.Faultlab.p95);
        check_bool "p95 <= worst" true (s.Faultlab.p95 <= s.Faultlab.worst);
        check_bool "mean nonnegative" true (s.Faultlab.mean >= 0.0)
      end)
    c.Faultlab.stats

let test_scenarios_by_name () =
  List.iter
    (fun name ->
      match Faultlab.scenario_by_name name with
      | Some _ -> ()
      | None -> Alcotest.fail ("unknown scenario " ^ name))
    Faultlab.scenario_names;
  check_bool "unknown rejected" true (Faultlab.scenario_by_name "nope" = None)

let test_json_smoke () =
  let c =
    Faultlab.run ~fractions:[ 1.0 ] ~seeds:2 ~max_steps:500
      (Faultlab.example1 ~n:3 ())
  in
  let path = Filename.temp_file "faults" ".json" in
  let oc = open_out path in
  Faultlab.write_json oc [ c ];
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
  check_bool "mentions benchmark" true (contains "\"benchmark\"");
  check_bool "mentions campaigns" true (contains "\"campaigns\"");
  check_bool "mentions fraction" true (contains "\"fraction\"")

(* ------------------------------------------------------------------ *)
(* Determinism across domains                                          *)
(* ------------------------------------------------------------------ *)

(* The acceptance contract of the domain-parallel runner: campaigns,
   adversarial searches and worst-case-recovery sweeps must be identical —
   down to witnesses — for every [~domains] value. [PARRUN_DOMAINS] lets CI
   fold an extra (e.g. machine-sized) domain count into the matrix. *)

let domain_matrix =
  let base = [ 2; 4 ] in
  match Parrun.env_domains () with Some d -> base @ [ d ] | None -> base

let campaign_eq a b =
  a.Faultlab.scenario_name = b.Faultlab.scenario_name
  && a.Faultlab.schedule = b.Faultlab.schedule
  && a.Faultlab.runs_per_fraction = b.Faultlab.runs_per_fraction
  && a.Faultlab.stats = b.Faultlab.stats

let test_campaign_identical_across_domains () =
  List.iter
    (fun sc ->
      let base =
        Faultlab.run ~fractions:[ 0.25; 1.0 ] ~seeds:6 ~max_steps:2000
          ~domains:1 sc
      in
      List.iter
        (fun domains ->
          let par =
            Faultlab.run ~fractions:[ 0.25; 1.0 ] ~seeds:6 ~max_steps:2000
              ~domains sc
          in
          check_bool
            (Printf.sprintf "%s identical at %d domains" sc.Faultlab.name
               domains)
            true (campaign_eq base par))
        domain_matrix)
    [ Faultlab.example1 ~n:3 (); Faultlab.d_counter ~n:3 ~d:4 ();
      Faultlab.ring_oscillator ~n:3 () ]

(* [Faultlab.run_matrix] rows of the three default scenarios at 200 seeds,
   recorded before recovery runs moved onto label codes: (scenario,
   fraction, runs, recovered, mean, p50, p95, worst). The sequential run
   and every count of [domain_matrix] must reproduce them exactly. *)
let golden_rows =
  [
    ("example1_k4", 0x1.999999999999ap-4, 200, 200, 0x1.47ae147ae147bp-7, 0, 0, 2);
    ("example1_k4", 0x1p-2, 200, 200, 0x1.0a3d70a3d70a4p-3, 0, 2, 2);
    ("example1_k4", 0x1p-1, 200, 200, 0x1.c51eb851eb852p-1, 0, 2, 3);
    ("example1_k4", 0x1.8p-1, 200, 200, 0x1.ef5c28f5c28f6p+0, 2, 3, 3);
    ("example1_k4", 0x1p+0, 200, 200, 0x1p+0, 1, 1, 1);
    ("d_counter_n5_d8", 0x1.999999999999ap-4, 200, 200, 0x1.47ae147ae147bp+1, 0, 9, 9);
    ("d_counter_n5_d8", 0x1p-2, 200, 200, 0x1.470a3d70a3d71p+2, 6, 9, 9);
    ("d_counter_n5_d8", 0x1p-1, 200, 200, 0x1.e99999999999ap+2, 8, 9, 9);
    ("d_counter_n5_d8", 0x1.8p-1, 200, 200, 0x1.0e147ae147ae1p+3, 9, 9, 9);
    ("d_counter_n5_d8", 0x1p+0, 200, 200, 0x1.1028f5c28f5c3p+3, 9, 9, 9);
    ("ring_oscillator_5", 0x1.999999999999ap-4, 200, 200, 0x1.099999999999ap+1, 0, 5, 5);
    ("ring_oscillator_5", 0x1p-2, 200, 200, 0x1.f99999999999ap+1, 5, 5, 5);
    ("ring_oscillator_5", 0x1p-1, 200, 200, 0x1.2cccccccccccdp+2, 5, 5, 5);
    ("ring_oscillator_5", 0x1.8p-1, 200, 200, 0x1.d666666666666p+1, 5, 5, 5);
    ("ring_oscillator_5", 0x1p+0, 200, 200, 0x0p+0, 0, 0, 0);
  ]

let test_golden_rows () =
  let rows ~domains =
    List.concat_map
      (fun sc ->
        let c, _ = Faultlab.run_matrix ~seeds:200 ~domains sc in
        List.map
          (fun (s : Faultlab.fraction_stats) ->
            ( c.Faultlab.scenario_name, s.fraction, s.runs, s.recovered,
              s.mean, s.p50, s.p95, s.worst ))
          c.Faultlab.stats)
      (Faultlab.default_scenarios ())
  in
  List.iter
    (fun domains ->
      check_bool
        (Printf.sprintf "golden rows at %d domains" domains)
        true
        (rows ~domains = golden_rows))
    (1 :: domain_matrix)

let test_adversarial_identical_across_domains () =
  let p = Clique_example.make 4 in
  let input = Clique_example.input 4 in
  let schedule = Schedule.synchronous 4 in
  let config = Protocol.uniform_config p false in
  let run domains =
    Fault.adversarial_corruption ~domains p ~input ~schedule ~k:2
      ~max_steps:200 config
  in
  let base = run 1 in
  List.iter
    (fun domains ->
      let par = run domains in
      check_bool
        (Printf.sprintf "edges agree at %d domains" domains)
        true
        (base.Fault.adv_edges = par.Fault.adv_edges
        && base.Fault.adv_codes = par.Fault.adv_codes
        && base.Fault.adv_recovery = par.Fault.adv_recovery
        && base.Fault.adv_exhaustive = par.Fault.adv_exhaustive))
    domain_matrix

let test_worst_case_identical_across_domains () =
  let cases =
    [
      ("example1", (fun d -> Checker.worst_case_recovery ~domains:d example1_3 ~input:unit3 ~max_states:100));
      ("oscillator",
       (let p = Feedback.ring_oscillator 3 in
        let input = Array.make 3 () in
        fun d -> Checker.worst_case_recovery ~domains:d p ~input ~max_states:100));
    ]
  in
  List.iter
    (fun (name, run) ->
      let base = run 1 in
      List.iter
        (fun domains ->
          check_bool
            (Printf.sprintf "%s verdict agrees at %d domains" name domains)
            true
            (base = run domains))
        [ 2; 4; 7 ])
    cases

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_faults"
    [
      ( "catalogue",
        [
          Alcotest.test_case "targeted scrambles neighborhood" `Quick
            test_targeted_scrambles_neighborhood;
          Alcotest.test_case "messages corrupts out-edges" `Quick
            test_messages_corrupts_out_edges_only;
          Alcotest.test_case "crash relabels to junk" `Quick
            test_crash_relabels_to_junk;
          Alcotest.test_case "deterministic in seed" `Quick
            test_inject_is_deterministic;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_inject_rejects_bad_arguments;
          Alcotest.test_case "fault names" `Quick test_fault_names;
          Alcotest.test_case "fraction 1 changes all" `Quick
            test_corrupt_full_fraction_changes_every_label;
          Alcotest.test_case "rate tracks fraction" `Quick
            test_corrupt_rate_tracks_fraction;
          Alcotest.test_case "codes match boxed" `Quick
            test_corrupt_codes_matches_boxed;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_adversarial_matches_brute_force;
          Alcotest.test_case "limit flags incomplete" `Quick
            test_adversarial_limit_flags_incomplete;
          Alcotest.test_case "rejects bad k" `Quick test_adversarial_rejects_bad_k;
        ] );
      ( "worst-case recovery",
        [
          Alcotest.test_case "example1 differential" `Quick
            test_worst_case_recovery_example1;
          Alcotest.test_case "copy-ring differential" `Quick
            test_worst_case_recovery_copy_ring;
          Alcotest.test_case "oscillator never settles" `Quick
            test_worst_case_recovery_oscillator;
          Alcotest.test_case "budget exceeded" `Quick
            test_worst_case_recovery_budget;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "example1 recovers" `Quick test_example1_recovers;
          Alcotest.test_case "nor latch round-robin" `Quick
            test_nor_latch_recovers_round_robin;
          Alcotest.test_case "d-counter re-locks" `Quick test_d_counter_relocks;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "statistics well-formed" `Quick
            test_campaign_statistics_well_formed;
          Alcotest.test_case "scenarios by name" `Quick test_scenarios_by_name;
          Alcotest.test_case "json smoke" `Quick test_json_smoke;
        ] );
      ( "domains",
        [
          Alcotest.test_case "campaigns identical" `Quick
            test_campaign_identical_across_domains;
          Alcotest.test_case "golden rows" `Quick test_golden_rows;
          Alcotest.test_case "adversarial identical" `Quick
            test_adversarial_identical_across_domains;
          Alcotest.test_case "worst-case identical" `Quick
            test_worst_case_identical_across_domains;
        ] );
    ]
