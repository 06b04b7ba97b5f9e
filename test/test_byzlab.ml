(* Differential and certification tests for the Byzantine-node layer:
   the attack steppers and campaigns (Byzlab) and the exhaustive
   (r,B)-stabilization certifier (Byzcheck).

   The load-bearing contracts:
   - with B = {} the Byzantine steppers are bit-identical to the
     fault-free Engine and Kernel on randomized protocols x schedules
     (no RNG draw, no write ever happens);
   - one Byzantine stepper, run through the boxed Engine's reaction and
     through the Kernel's, gives the same run for every strategy (same
     seed, same configurations, same write count);
   - Byzcheck with B = {} agrees with the plain exhaustive checker on
     the standard small instances — same verdicts, same states-graph
     size — because the state space is not augmented at all;
   - one Byzantine node flips K_3's output verdict, and every
     oscillation witness replays on both execution engines;
   - campaigns are identical for every domain count. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Schedule = Stateless_core.Schedule
module Parrun = Stateless_core.Parrun
module Clique_example = Stateless_core.Clique_example
module Digraph = Stateless_graph.Digraph
module Checker = Stateless_checker.Checker
module Byzlab = Stateless_byzlab.Byzlab
module Byzcheck = Stateless_byzlab.Byzcheck
module Two_counter = Stateless_counter.Two_counter
module Proptest = Stateless_core.Proptest

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Extra domain counts from the environment (the CI matrix leg sets
   PARRUN_DOMAINS=4); determinism contracts must hold for any value. *)
let extra_domains =
  match Parrun.env_domains () with Some d -> [ d ] | None -> []

let domain_counts = [ 2; 4 ] @ extra_domains

(* Random protocols from the shared generator, with this suite's own RNG
   constants (instances differ from the kernel and netlab suites). *)
let random_protocol seed =
  Proptest.random_protocol ~salt:0xb1a5ed ~name:"byz" seed

let random_config = Proptest.random_config
let schedules_for seed n = Proptest.schedules_for ~offset:3 seed n
let config_eq = Proptest.config_eq

(* ------------------------------------------------------------------ *)
(* B = {} steppers are the fault-free engines                          *)
(* ------------------------------------------------------------------ *)

let test_empty_byz_packed_matches_kernel () =
  for seed = 1 to 15 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    List.iter
      (fun schedule ->
        let steps = 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        List.iter
          (fun strategy ->
            let ch =
              Byzlab.Packed.create (Kernel.create p ~input) p ~byz:[]
                ~strategy ~schedule ~seed ~init
            in
            Byzlab.Packed.run ch ~steps;
            check_bool
              (Printf.sprintf "seed %d %s: B={} packed = kernel" seed
                 schedule.Schedule.name)
              true
              (config_eq p expect (Byzlab.Packed.config ch));
            check "no write at B={}" 0 (Byzlab.Packed.writes_done ch))
          [ Byzlab.Seeded_random; Byzlab.Anti_majority ])
      (schedules_for seed n)
  done

let test_empty_byz_boxed_matches_engine () =
  for seed = 1 to 15 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    List.iter
      (fun schedule ->
        let steps = 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        let ch =
          Byzlab.Reference.create (Engine.Coded.create p ~input) p ~byz:[]
            ~strategy:Byzlab.Seeded_random ~schedule ~seed ~init
        in
        Byzlab.Reference.run ch ~steps;
        check_bool
          (Printf.sprintf "seed %d %s: B={} boxed = engine" seed
             schedule.Schedule.name)
          true
          (config_eq p expect (Byzlab.Reference.config ch));
        check "no write at B={}" 0 (Byzlab.Reference.writes_done ch))
      (schedules_for seed n)
  done

(* ------------------------------------------------------------------ *)
(* Engine and Kernel reactions agree under one Byzantine stepper       *)
(* ------------------------------------------------------------------ *)

let test_steppers_are_twins () =
  for seed = 1 to 15 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = random_config p st in
    let byz = if n > 2 then [ 0; n - 1 ] else [ 0 ] in
    List.iter
      (fun strategy ->
        List.iter
          (fun schedule ->
            let steps = 40 in
            let b =
              Byzlab.Reference.create (Engine.Coded.create p ~input) p ~byz
                ~strategy ~schedule ~seed ~init
            in
            let k =
              Byzlab.Packed.create (Kernel.create p ~input) p ~byz ~strategy
                ~schedule ~seed ~init
            in
            Byzlab.Reference.run b ~steps;
            Byzlab.Packed.run k ~steps;
            check_bool
              (Printf.sprintf "seed %d %s %s: twin configs" seed
                 (Byzlab.strategy_name strategy)
                 schedule.Schedule.name)
              true
              (config_eq p (Byzlab.Reference.config b)
                 (Byzlab.Packed.config k));
            check "twin write counts" (Byzlab.Reference.writes_done b)
              (Byzlab.Packed.writes_done k))
          (schedules_for seed n))
      [ Byzlab.Seeded_random; Byzlab.Anti_majority ]
  done

let test_byzantine_nodes_do_write () =
  let p, input, st = random_protocol 1 in
  let n = Protocol.num_nodes p in
  let init = random_config p st in
  let ch =
    Byzlab.Packed.create (Kernel.create p ~input) p ~byz:[ 0 ]
      ~strategy:Byzlab.Seeded_random
      ~schedule:(Schedule.synchronous n) ~seed:1 ~init
  in
  Byzlab.Packed.run ch ~steps:10;
  (* Node 0 is activated every synchronous step and owns at least one
     out-edge (the generator keeps graphs strongly connected). *)
  check_bool "synchronous Byzantine node writes every step" true
    (Byzlab.Packed.writes_done ch >= 10)

(* ------------------------------------------------------------------ *)
(* Byzcheck with B = {} collapses to the plain checker                 *)
(* ------------------------------------------------------------------ *)

let plain_kind = function
  | Checker.Stabilizing -> `Stab
  | Checker.Oscillating _ -> `Osc
  | Checker.Too_large _ -> `Big

let kind = function
  | Byzcheck.Stabilizing -> `Stab
  | Byzcheck.Oscillating _ -> `Osc
  | Byzcheck.Too_large _ -> `Big

let agree_at_empty_byz name p ~input ~r =
  let budget = 100_000 in
  let plain = Checker.check_label p ~input ~r ~max_states:budget in
  let plain_states =
    match Checker.last_stats () with Some s -> s.Checker.states | None -> -1
  in
  let byzv = Byzcheck.check_label p ~input ~byz:[] ~r ~max_states:budget in
  let byz_states =
    match Byzcheck.last_stats () with Some s -> s.Byzcheck.states | None -> -2
  in
  check_bool (name ^ " label verdicts agree") true (plain_kind plain = kind byzv);
  check (name ^ " same states-graph size") plain_states byz_states;
  check_bool (name ^ " output verdicts agree") true
    (plain_kind (Checker.check_output p ~input ~r ~max_states:budget)
    = kind (Byzcheck.check_output p ~input ~byz:[] ~r ~max_states:budget))

let test_empty_byz_agrees_with_checker () =
  let two = Two_counter.make 3 in
  agree_at_empty_byz "example1 r=1" (Clique_example.make 3)
    ~input:(Clique_example.input 3) ~r:1;
  agree_at_empty_byz "example1 r=2" (Clique_example.make 3)
    ~input:(Clique_example.input 3) ~r:2;
  agree_at_empty_byz "copy-ring r=1"
    (Proptest.copy_ring ~name:"copy-ring-byz" 3)
    ~input:(Array.make 3 ()) ~r:1;
  agree_at_empty_byz "two-counter r=1" two.Two_counter.protocol
    ~input:(Two_counter.input two) ~r:1

(* ------------------------------------------------------------------ *)
(* One Byzantine node flips the clique's verdict                       *)
(* ------------------------------------------------------------------ *)

let test_byz_flips_verdict () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  (match Byzcheck.check_output p ~input ~byz:[] ~r:1 ~max_states:100_000 with
  | Byzcheck.Stabilizing -> ()
  | _ -> Alcotest.fail "K3 must output-1-stabilize with no Byzantine node");
  match Byzcheck.check_output p ~input ~byz:[ 0 ] ~r:1 ~max_states:1_000_000 with
  | Byzcheck.Oscillating w ->
      check_bool "boxed replay" true (Byzcheck.replay p ~input ~byz:[ 0 ] w);
      check_bool "packed replay" true
        (Byzcheck.replay_packed p ~input ~byz:[ 0 ] w);
      let owned = Digraph.out_edges p.Protocol.graph 0 in
      check_bool "witness writes only Byzantine edges" true
        (List.for_all
           (fun s ->
             List.for_all
               (fun wr ->
                 Array.exists (fun e -> e = wr.Byzcheck.edge) owned)
               s.Byzcheck.writes)
           (w.Byzcheck.prefix @ w.Byzcheck.cycle));
      (* The witness is also a playable attack: feed it to the steppers
         as a Replay strategy from the witness's initial labeling. *)
      let init = Protocol.decode_config p w.Byzcheck.init_code in
      let steps =
        List.length w.Byzcheck.prefix + (2 * List.length w.Byzcheck.cycle)
      in
      let b =
        Byzlab.Reference.create (Engine.Coded.create p ~input) p ~byz:[ 0 ]
          ~strategy:(Byzlab.Replay w)
          ~schedule:(Schedule.synchronous 3) ~seed:1 ~init
      in
      let k =
        Byzlab.Packed.create (Kernel.create p ~input) p ~byz:[ 0 ]
          ~strategy:(Byzlab.Replay w)
          ~schedule:(Schedule.synchronous 3) ~seed:1 ~init
      in
      Byzlab.Reference.run b ~steps;
      Byzlab.Packed.run k ~steps;
      check_bool "replay strategy twins" true
        (config_eq p (Byzlab.Reference.config b) (Byzlab.Packed.config k));
      check "replay write counts" (Byzlab.Reference.writes_done b)
        (Byzlab.Packed.writes_done k)
  | Byzcheck.Stabilizing ->
      Alcotest.fail "one Byzantine node must un-stabilize K3"
  | Byzcheck.Too_large { needed } ->
      Alcotest.failf "K3 with one Byzantine node too large: %d" needed

let test_label_verdict_flips_too () =
  let p = Proptest.copy_ring ~name:"copy-ring-byz-immune" 3 in
  let input = Array.make 3 () in
  (* The copy ring's outputs are constant 0, so even a Byzantine node
     cannot make outputs diverge — but it keeps labels churning. *)
  (match Byzcheck.check_output p ~input ~byz:[ 0 ] ~r:1 ~max_states:100_000 with
  | Byzcheck.Stabilizing -> ()
  | _ -> Alcotest.fail "copy-ring outputs are Byzantine-immune");
  match Byzcheck.check_label p ~input ~byz:[ 0 ] ~r:1 ~max_states:100_000 with
  | Byzcheck.Oscillating w ->
      check_bool "label witness replays boxed" true
        (Byzcheck.replay p ~input ~byz:[ 0 ] w);
      check_bool "label witness replays packed" true
        (Byzcheck.replay_packed p ~input ~byz:[ 0 ] w)
  | _ -> Alcotest.fail "a Byzantine node keeps the copy ring's labels alive"

(* ------------------------------------------------------------------ *)
(* Containment radii                                                   *)
(* ------------------------------------------------------------------ *)

let test_containment_k3 () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  match Byzcheck.containment p ~input ~byz:[ 0 ] ~r:1 ~max_states:1_000_000 with
  | Error needed -> Alcotest.failf "containment too large: %d" needed
  | Ok c ->
      check "fates cover the correct nodes" 2 (List.length c.Byzcheck.fates);
      List.iter
        (fun f ->
          check_bool "fate is for a correct node" true
            (f.Byzcheck.node = 1 || f.Byzcheck.node = 2);
          check
            (Printf.sprintf "node %d at clique distance 1" f.Byzcheck.node)
            1 f.Byzcheck.distance;
          check_bool
            (Printf.sprintf "node %d diverges" f.Byzcheck.node)
            false f.Byzcheck.stabilizes)
        c.Byzcheck.fates;
      check_bool "radius 1" true (c.Byzcheck.radius = Some 1);
      check_bool "nobody stabilizes" true
        (c.Byzcheck.stabilized_fraction = 0.0);
      (match c.Byzcheck.witness with
      | Some w ->
          check_bool "containment witness replays" true
            (Byzcheck.replay p ~input ~byz:[ 0 ] w)
      | None -> Alcotest.fail "a diverging node must carry a witness")

(* ------------------------------------------------------------------ *)
(* Golden witnesses                                                    *)
(* ------------------------------------------------------------------ *)

(* Exact verdicts, witnesses (with their writes), graph sizes and the
   containment report, recorded before the certifiers' post-exploration
   passes were shared: any change to state ids, edge order or the lasso
   construction shows up here. *)
let show_steps steps =
  String.concat ";"
    (List.map
       (fun s ->
         String.concat "," (List.map string_of_int s.Byzcheck.active)
         ^ String.concat ""
             (List.map
                (fun w ->
                  Printf.sprintf "/%d:%d" w.Byzcheck.edge w.Byzcheck.code)
                s.Byzcheck.writes))
       steps)

let show_witness w =
  Printf.sprintf "init=%d prefix=[%s] cycle=[%s]" w.Byzcheck.init_code
    (show_steps w.Byzcheck.prefix)
    (show_steps w.Byzcheck.cycle)

let show_verdict = function
  | Byzcheck.Stabilizing -> "stabilizing"
  | Byzcheck.Too_large { needed } -> Printf.sprintf "too_large %d" needed
  | Byzcheck.Oscillating w -> "oscillating " ^ show_witness w

let show_stats () =
  match Byzcheck.last_stats () with
  | None -> "no stats"
  | Some s ->
      Printf.sprintf "states=%d edges=%d" s.Byzcheck.states s.Byzcheck.edges

let test_golden_witnesses () =
  let replays name p ~input ~byz w =
    check_bool (name ^ " replays (boxed)") true
      (Byzcheck.replay p ~input ~byz w);
    check_bool (name ^ " replays (packed)") true
      (Byzcheck.replay_packed p ~input ~byz w)
  in
  let golden name p ~input ~byz run expect =
    let v = run p ~input ~byz in
    Alcotest.(check string)
      name expect
      (show_verdict v ^ " | " ^ show_stats ());
    match v with
    | Byzcheck.Oscillating w -> replays name p ~input ~byz w
    | _ -> ()
  in
  let k3 = Clique_example.make 3 and k3_in = Clique_example.input 3 in
  let ring = Proptest.copy_ring ~name:"copy_ring_3" 3 in
  let ring_in = Array.make 3 () in
  golden "clique_k3 output B={0}" k3 ~input:k3_in ~byz:[ 0 ]
    (Byzcheck.check_output ~r:1 ~max_states:1_000_000)
    "oscillating init=3 prefix=[] cycle=[0,1,2/0:0/1:0;0,1,2/0:0/1:0] | states=64 edges=256";
  golden "clique_k3 output B={0,1}" k3 ~input:k3_in ~byz:[ 0; 1 ]
    (Byzcheck.check_output ~r:1 ~max_states:1_000_000)
    "oscillating init=0 prefix=[] cycle=[0,1,2/0:0/1:0/2:0/3:0;0,1,2/0:0/1:0/2:0/3:1;0,1,2/0:0/1:0/2:0/3:0;0,1,2/0:0/1:0/2:0/3:0] | states=64 edges=1024";
  golden "copy_ring_3 label B={0}" ring ~input:ring_in ~byz:[ 0 ]
    (Byzcheck.check_label ~r:1 ~max_states:1_000_000)
    "oscillating init=1 prefix=[] cycle=[0,1,2/0:0;0,1,2/0:1;0,1,2/0:0;0,1,2/0:0] | states=8 edges=16";
  match
    Byzcheck.containment k3 ~input:k3_in ~byz:[ 0 ] ~r:1
      ~max_states:1_000_000
  with
  | Error needed -> Alcotest.failf "containment too large: %d" needed
  | Ok c ->
      let fates =
        String.concat ";"
          (List.map
             (fun f ->
               Printf.sprintf "%d@%d:%b" f.Byzcheck.node f.Byzcheck.distance
                 f.Byzcheck.stabilizes)
             c.Byzcheck.fates)
      in
      let got =
        Printf.sprintf
          "byz=[%s] fates=[%s] fraction=%g radius=%s witness=%s | %s"
          (String.concat "," (List.map string_of_int c.Byzcheck.byz))
          fates c.Byzcheck.stabilized_fraction
          (match c.Byzcheck.radius with
          | None -> "none"
          | Some r -> string_of_int r)
          (match c.Byzcheck.witness with
          | None -> "none"
          | Some w -> show_witness w)
          (show_stats ())
      in
      Alcotest.(check string) "containment K3 B={0}"
        "byz=[0] fates=[1@1:false;2@1:false] fraction=0 radius=1 witness=init=3 prefix=[] cycle=[0,1,2/0:0/1:0;0,1,2/0:0/1:0] | states=64 edges=256"
        got;
      Option.iter (replays "containment witness" k3 ~input:k3_in ~byz:[ 0 ])
        c.Byzcheck.witness

let test_containment_fully_contained () =
  let p = Proptest.copy_ring ~name:"copy-ring-byz-contained" 3 in
  let input = Array.make 3 () in
  match Byzcheck.containment p ~input ~byz:[ 0 ] ~r:1 ~max_states:100_000 with
  | Error needed -> Alcotest.failf "containment too large: %d" needed
  | Ok c ->
      check_bool "no radius when everyone stabilizes" true
        (c.Byzcheck.radius = None);
      check_bool "everyone stabilizes" true
        (c.Byzcheck.stabilized_fraction = 1.0);
      check_bool "no witness" true (c.Byzcheck.witness = None)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  (match Byzcheck.check_label p ~input ~byz:[ 3 ] ~r:1 ~max_states:1_000 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (match
     Byzcheck.check_label p ~input ~byz:[ 0; 0 ] ~r:1 ~max_states:1_000
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match
    Byzlab.Packed.create (Kernel.create p ~input) p ~byz:[ -1 ]
      ~strategy:Byzlab.Seeded_random ~schedule:(Schedule.synchronous 3)
      ~seed:1
      ~init:(Protocol.decode_config p 0)
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_strategy_names () =
  List.iter
    (fun name ->
      match Byzlab.strategy_by_name name with
      | Some s -> check_bool name true (Byzlab.strategy_name s = name)
      | None -> Alcotest.failf "strategy %S not resolvable" name)
    Byzlab.strategy_names;
  check_bool "unknown strategy" true (Byzlab.strategy_by_name "nope" = None)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let test_campaign_domain_determinism () =
  let sc = Byzlab.relay_ring ~n:5 () in
  let campaign domains =
    Byzlab.run ~seeds:4 ~attack:40 ~max_steps:400 ~domains
      ~strategy:Byzlab.Seeded_random sc
  in
  let base = campaign 1 in
  check "one level per placement"
    (List.length sc.Byzlab.placements)
    (List.length base.Byzlab.levels);
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "domains=%d identical" d) true
        (campaign d = base))
    domain_counts;
  (match base.Byzlab.levels with
  | l0 :: _ ->
      check_bool "first level is the healthy baseline" true
        (l0.Byzlab.byz = []);
      check_bool "healthy baseline never deviates" true
        (l0.Byzlab.mean_deviant = 0.0
        && l0.Byzlab.mean_stabilized = 1.0
        && l0.Byzlab.worst_radius = -1)
  | [] -> Alcotest.fail "campaign has no levels");
  match
    List.find_opt (fun l -> l.Byzlab.byz = [ 0 ]) base.Byzlab.levels
  with
  | Some l ->
      check_bool "a Byzantine relay node causes deviation" true
        (l.Byzlab.mean_deviant > 0.0);
      check_bool "deviation spreads beyond the neighbours" true
        (l.Byzlab.worst_radius >= 1)
  | None -> Alcotest.fail "placement [0] missing from the sweep"

let test_campaign_seed0_matters () =
  let sc = Byzlab.relay_ring ~n:5 () in
  let campaign seed0 =
    Byzlab.run ~placements:[ [ 0 ] ] ~seeds:3 ~attack:40 ~max_steps:400
      ~domains:1 ~seed0 ~strategy:Byzlab.Seeded_random sc
  in
  check_bool "same seed0, same campaign" true (campaign 1 = campaign 1);
  (* Different seed0 changes the RNG streams; the relay ring's deviant
     fractions are seed-sensitive, so the campaigns must differ. *)
  check_bool "different seed0, different campaign" true
    (campaign 1 <> campaign 1001)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let test_write_json_smoke () =
  let sc = Byzlab.relay_ring ~n:5 () in
  let c =
    Byzlab.run ~seeds:2 ~attack:20 ~max_steps:100 ~domains:1
      ~strategy:Byzlab.Anti_majority sc
  in
  let path = Filename.temp_file "byz" ".json" in
  let oc = open_out path in
  Byzlab.write_json ~host:"{ \"ocaml\": \"test\" }"
    ~certification:[ "{ \"instance\": \"t\" }" ]
    oc [ c ];
  close_out oc;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check_bool "names the benchmark" true
    (contains s "\"benchmark\": \"byzlab\"");
  check_bool "has the host block" true (contains s "\"host\"");
  check_bool "has the certification rows" true
    (contains s "\"certification\"");
  check_bool "has the campaign rows" true (contains s "\"byz_count\"")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_byzlab"
    [
      ( "steppers",
        [
          Alcotest.test_case "B={} packed = kernel" `Quick
            test_empty_byz_packed_matches_kernel;
          Alcotest.test_case "B={} boxed = engine" `Quick
            test_empty_byz_boxed_matches_engine;
          Alcotest.test_case "boxed/packed twins" `Quick
            test_steppers_are_twins;
          Alcotest.test_case "Byzantine nodes write" `Quick
            test_byzantine_nodes_do_write;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "byzcheck",
        [
          Alcotest.test_case "B={} agrees with checker" `Quick
            test_empty_byz_agrees_with_checker;
          Alcotest.test_case "one Byzantine node flips K3" `Quick
            test_byz_flips_verdict;
          Alcotest.test_case "copy-ring outputs immune, labels not" `Quick
            test_label_verdict_flips_too;
          Alcotest.test_case "containment on K3" `Quick test_containment_k3;
          Alcotest.test_case "containment fully contained" `Quick
            test_containment_fully_contained;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "golden witnesses" `Quick test_golden_witnesses;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "identical for every domain count" `Quick
            test_campaign_domain_determinism;
          Alcotest.test_case "seed0 shifts the seed range" `Quick
            test_campaign_seed0_matters;
          Alcotest.test_case "JSON smoke" `Quick test_write_json_smoke;
        ] );
    ]
