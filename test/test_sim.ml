(* Differential suite for the event-driven continuous-time simulator
   ({!Eventsim}): the unit-latency synchronous anchor against the packed
   {!Kernel} on the shared proptest matrix for every evaluation tier,
   counter-RNG determinism (including across {!Parrun} domain counts),
   fault accounting, and the scalable graph generators. *)

module Protocol = Stateless_core.Protocol
module Kernel = Stateless_core.Kernel
module Eventsim = Stateless_core.Eventsim
module Schedule = Stateless_core.Schedule
module Parrun = Stateless_core.Parrun
module Proptest = Stateless_core.Proptest
module Digraph = Stateless_graph.Digraph
module Builders = Stateless_graph.Builders

let config_eq = Proptest.config_eq

(* The three tier forcings and an evicting two-slot memo, as (name, table
   words, memo entries). *)
let tiers = [ ("table", None, None); ("memo", Some 0, None);
              ("evict", Some 0, Some 2); ("raw", Some 0, Some 0) ]

let trials = 30

(* ------------------------------------------------------------------ *)
(* Synchronous anchor                                                  *)
(* ------------------------------------------------------------------ *)

let test_sync_matches_kernel () =
  for seed = 1 to trials do
    let p, input, state = Proptest.random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = Proptest.random_config p state in
    let kern = Kernel.create p ~input in
    List.iter
      (fun steps ->
        let reference =
          Kernel.run kern ~init ~schedule:(Schedule.synchronous n) ~steps
        in
        List.iter
          (fun (tier, max_table_words, max_memo_entries) ->
            let sim =
              Eventsim.create ?max_table_words ?max_memo_entries ~sync:true
                ~seed p ~input ~init
            in
            let _ = Eventsim.run sim ~horizon:(float_of_int steps) in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d tier %s steps %d" seed tier steps)
              true
              (config_eq p reference (Eventsim.config sim)))
          tiers)
      [ 0; 1; 5; 17 ]
  done

let test_sync_resumable () =
  for seed = 1 to trials do
    let p, input, state = Proptest.random_protocol seed in
    let n = Protocol.num_nodes p in
    let init = Proptest.random_config p state in
    let kern = Kernel.create p ~input in
    let reference =
      Kernel.run kern ~init ~schedule:(Schedule.synchronous n) ~steps:12
    in
    let sim = Eventsim.create ~sync:true ~seed p ~input ~init in
    let _ = Eventsim.run sim ~horizon:3.0 in
    let _ = Eventsim.run sim ~horizon:7.0 in
    let _ = Eventsim.run sim ~horizon:12.0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d resumed run matches" seed)
      true
      (config_eq p reference (Eventsim.config sim))
  done

let test_sync_copy_ring () =
  let p = Proptest.copy_ring 7 in
  let input = Array.make 7 () in
  let kern = Kernel.create p ~input in
  let init = Protocol.config_of_labels p
      [| true; false; false; true; false; true; true |] in
  List.iter
    (fun steps ->
      let reference =
        Kernel.run kern ~init ~schedule:(Schedule.synchronous 7) ~steps
      in
      let sim = Eventsim.create ~sync:true ~seed:1 p ~input ~init in
      let _ = Eventsim.run sim ~horizon:(float_of_int steps) in
      Alcotest.(check bool)
        (Printf.sprintf "rotation after %d steps" steps)
        true
        (config_eq p reference (Eventsim.config sim)))
    [ 0; 1; 6; 7; 8; 20 ]

(* ------------------------------------------------------------------ *)
(* Determinism of the asynchronous trajectory                          *)
(* ------------------------------------------------------------------ *)

let async_fingerprint ?faults ~seed p ~input ~init ~horizon () =
  let sim =
    Eventsim.create ?faults ~latency:(Eventsim.Exp 0.7) ~rate:1.3 ~seed p
      ~input ~init
  in
  let st = Eventsim.run sim ~horizon in
  ( Array.copy (Eventsim.labels sim),
    Array.copy (Eventsim.outputs sim),
    st.Eventsim.events,
    st.Eventsim.deliveries )

let test_async_deterministic () =
  for seed = 1 to trials do
    let p, input, state = Proptest.random_protocol seed in
    let init = Proptest.random_config p state in
    let a = async_fingerprint ~seed p ~input ~init ~horizon:25.0 () in
    let b = async_fingerprint ~seed p ~input ~init ~horizon:25.0 () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d same seed same trajectory" seed)
      true (a = b)
  done

(* Multi-seed campaigns sharded over domains must not perturb any run:
   each simulator is self-contained, so results are bit-identical for
   every domain count. *)
let test_async_identical_across_domains () =
  let p, input, state = Proptest.random_protocol 3 in
  let init = Proptest.random_config p state in
  let campaign domains =
    Parrun.map ~domains
      ~ctx:(fun () -> ())
      8
      (fun () s -> async_fingerprint ~seed:(s + 1) p ~input ~init
          ~horizon:20.0 ())
  in
  let reference = campaign 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains identical" domains)
        true
        (campaign domains = reference))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Golden asynchronous trajectories                                    *)
(* ------------------------------------------------------------------ *)

module Simlab = Stateless_simlab.Simlab

(* Simlab contagion runs at 2,000 nodes over every latency shape the
   delivery structures distinguish (variable, zero-width uniform, heavy
   tail), with and without message and crash faults, on a ring and a
   sparse random graph. Each row pins (events, activations, deliveries,
   lost, duplicated, crash_windows, metric, label_hash): a change to the
   event storage must reproduce every trajectory exactly. *)
let golden_faults =
  [
    ("clean", Eventsim.no_faults);
    ( "faulty",
      { Eventsim.loss = 0.05; dup = 0.02; crash = 0.01; crash_len = 1.0 } );
  ]

let golden_instances () =
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun lat ->
          List.map
            (fun (fname, faults) ->
              let get = function Ok x -> x | Error e -> failwith e in
              let inst =
                Simlab.build
                  (Simlab.Contagion { threshold = 0.3; seed_frac = 0.1 })
                  (get (Simlab.topology_of_string topo))
                  ~graph_seed:42 ~nodes:2000 ~rate:1.0
                  ~latency:(get (Simlab.latency_of_string lat))
                  ~faults
              in
              (Printf.sprintf "%s %s %s" topo lat fname, inst))
            golden_faults)
        [ "exp:0.7"; "uniform:0.1:1.5"; "uniform:0:0"; "pareto:0.8:0.1" ])
    [ "ring"; "er:4" ]

let golden_horizon = 10.0

let golden_row (r : Simlab.result) =
  ( r.events, r.activations, r.deliveries, r.lost, r.duplicated,
    r.crash_windows, r.metric, r.label_hash )

(* (instance, seed) -> golden_row, recorded when deliveries were still
   ordered in a global priority queue, so per-edge resolution is checked
   against an independent implementation. *)
let golden_table =
  [
    ("ring exp:0.7 clean seed 1",
     (57796, 20232, 37564, 0, 0, 0, 216, 0x3430106eea879d28));
    ("ring exp:0.7 clean seed 2",
     (56926, 19920, 37006, 0, 0, 0, 211, 0x2ee16860289d420d));
    ("ring exp:0.7 faulty seed 1",
     (55801, 20232, 35569, 2036, 761, 221, 214, 0x1c8248add80767bf));
    ("ring exp:0.7 faulty seed 2",
     (55129, 19920, 35209, 1998, 762, 193, 211, 0x2ee16860289d420d));
    ("ring uniform:0.1:1.5 clean seed 1",
     (57435, 20232, 37203, 0, 0, 0, 212, 0x1f13d16f8b9f0b7c));
    ("ring uniform:0.1:1.5 clean seed 2",
     (56551, 19920, 36631, 0, 0, 0, 212, 0x4c5f686490d473d));
    ("ring uniform:0.1:1.5 faulty seed 1",
     (55424, 20232, 35192, 2036, 761, 221, 210, 0x199b270280f7af4));
    ("ring uniform:0.1:1.5 faulty seed 2",
     (54801, 19920, 34881, 1998, 762, 193, 212, 0x4c5f686490d473d));
    ("ring uniform:0:0 clean seed 1",
     (60696, 20232, 40464, 0, 0, 0, 219, 0x2721b8f72e426116));
    ("ring uniform:0:0 clean seed 2",
     (59760, 19920, 39840, 0, 0, 0, 215, 0x15b67c3c5adde47));
    ("ring uniform:0:0 faulty seed 1",
     (58521, 20232, 38289, 2036, 761, 221, 216, 0x12c450a3e816545d));
    ("ring uniform:0:0 faulty seed 2",
     (57848, 19920, 37928, 1998, 762, 193, 215, 0x15b67c3c5adde47));
    ("ring pareto:0.8:0.1 clean seed 1",
     (57282, 20232, 37050, 0, 0, 0, 214, 0x21d26da061029bd1));
    ("ring pareto:0.8:0.1 clean seed 2",
     (56310, 19920, 36390, 0, 0, 0, 212, 0x2cad28fe7ce9d3dd));
    ("ring pareto:0.8:0.1 faulty seed 1",
     (55272, 20232, 35040, 2036, 761, 221, 213, 0x387e391bb063754));
    ("ring pareto:0.8:0.1 faulty seed 2",
     (54517, 19920, 34597, 1998, 762, 193, 212, 0x2cad28fe7ce9d3dd));
    ("er:4 exp:0.7 clean seed 1",
     (95879, 20232, 75647, 0, 0, 0, 1615, 0x34369b4ad423bc62));
    ("er:4 exp:0.7 clean seed 2",
     (94341, 19920, 74421, 0, 0, 0, 1704, 0x1d113714020bc306));
    ("er:4 exp:0.7 faulty seed 1",
     (92057, 20232, 71825, 4173, 1558, 186, 1588, 0x22bdf65c1344ab0a));
    ("er:4 exp:0.7 faulty seed 2",
     (90604, 19920, 70684, 3935, 1428, 202, 1627, 0x12d3f42a6046ee1d));
    ("er:4 uniform:0.1:1.5 clean seed 1",
     (95106, 20232, 74874, 0, 0, 0, 1597, 0x1a8ca995868d0bb6));
    ("er:4 uniform:0.1:1.5 clean seed 2",
     (93610, 19920, 73690, 0, 0, 0, 1553, 0x1a9da634bbcfd1c4));
    ("er:4 uniform:0.1:1.5 faulty seed 1",
     (91335, 20232, 71103, 4173, 1558, 186, 1378, 0x2c15b2cd430b043a));
    ("er:4 uniform:0.1:1.5 faulty seed 2",
     (89886, 19920, 69966, 3935, 1428, 202, 1471, 0x3e12902783b7c4df));
    ("er:4 uniform:0:0 clean seed 1",
     (101718, 20232, 81486, 0, 0, 0, 1926, 0x24fcade4a7ad3a61));
    ("er:4 uniform:0:0 clean seed 2",
     (99982, 19920, 80062, 0, 0, 0, 1927, 0x39faf90a1216233e));
    ("er:4 uniform:0:0 faulty seed 1",
     (97544, 20232, 77312, 4173, 1558, 186, 1919, 0x36ac3c26173ff85e));
    ("er:4 uniform:0:0 faulty seed 2",
     (95967, 19920, 76047, 3935, 1428, 202, 1923, 0xd1fab38e6ca2154));
    ("er:4 pareto:0.8:0.1 clean seed 1",
     (94740, 20232, 74508, 0, 0, 0, 1787, 0xae18392bc4c214e));
    ("er:4 pareto:0.8:0.1 clean seed 2",
     (93074, 19920, 73154, 0, 0, 0, 1814, 0x15700f652e755add));
    ("er:4 pareto:0.8:0.1 faulty seed 1",
     (90853, 20232, 70621, 4173, 1558, 186, 1747, 0x3a06348b6836356d));
    ("er:4 pareto:0.8:0.1 faulty seed 2",
     (89393, 19920, 69473, 3935, 1428, 202, 1742, 0x37c1c1e3fce1d077));
  ]

let test_async_goldens () =
  List.iter
    (fun (name, (inst : Simlab.instance)) ->
      List.iter
        (fun seed ->
          let r = inst.run ~seed ~horizon:golden_horizon in
          let key = Printf.sprintf "%s seed %d" name seed in
          Alcotest.(check bool) (key ^ " matches golden") true
            (List.assoc_opt key golden_table = Some (golden_row r));
          let polled =
            inst.run_poll ~poll:ignore ~seed ~horizon:golden_horizon
          in
          Alcotest.(check bool) (key ^ " run_poll = run") true (polled = r))
        [ 1; 2 ])
    (golden_instances ())

(* ------------------------------------------------------------------ *)
(* Faults as latency special cases                                     *)
(* ------------------------------------------------------------------ *)

let test_loss_one_freezes_labels () =
  let p, input, state = Proptest.random_protocol 5 in
  let init = Proptest.random_config p state in
  let faults = { Eventsim.no_faults with loss = 1.0 } in
  let sim = Eventsim.create ~faults ~seed:9 p ~input ~init in
  let frozen = Array.copy (Eventsim.labels sim) in
  let st = Eventsim.run sim ~horizon:50.0 in
  Alcotest.(check int) "no deliveries" 0 st.Eventsim.deliveries;
  Alcotest.(check bool) "every message lost" true (st.Eventsim.lost > 0);
  Alcotest.(check bool) "labels frozen at init" true
    (Eventsim.labels sim = frozen);
  Alcotest.(check bool) "activations still fire" true
    (st.Eventsim.activations > 0)

let test_dup_doubles_deliveries () =
  let p, input, state = Proptest.random_protocol 6 in
  let init = Proptest.random_config p state in
  let faults = { Eventsim.no_faults with dup = 1.0 } in
  let sim = Eventsim.create ~faults ~latency:(Eventsim.Const 0.1) ~seed:4 p
      ~input ~init in
  let st = Eventsim.run sim ~horizon:50.0 in
  Alcotest.(check bool) "every push duplicated" true
    (st.Eventsim.duplicated > 0);
  (* With dup = 1 every sent message is pushed twice; deliveries processed
     within the horizon are exactly twice the duplications counted for
     them, up to copies still in flight at the horizon. *)
  Alcotest.(check bool) "deliveries track duplications" true
    (st.Eventsim.deliveries >= st.Eventsim.duplicated)

let test_crash_suppresses_reactions () =
  let p, input, state = Proptest.random_protocol 8 in
  let init = Proptest.random_config p state in
  let faults =
    { Eventsim.no_faults with crash = 1.0; crash_len = 1000.0 }
  in
  let sim = Eventsim.create ~faults ~seed:2 p ~input ~init in
  let st = Eventsim.run sim ~horizon:50.0 in
  let n = Protocol.num_nodes p in
  Alcotest.(check int) "each node crashed exactly once" n
    st.Eventsim.crash_windows;
  Alcotest.(check int) "no message ever sent" 0 st.Eventsim.deliveries

(* ------------------------------------------------------------------ *)
(* Scalable graph generators                                           *)
(* ------------------------------------------------------------------ *)

let degree_sum g =
  let n = Digraph.num_nodes g in
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Digraph.out_degree g i
  done;
  !s

let test_erdos_renyi_sparse () =
  let n = 5000 in
  let g = Builders.erdos_renyi_sparse ~seed:11 n ~avg_out:4.0 in
  let m = Digraph.num_edges g in
  Alcotest.(check bool) "edge count near n * avg_out" true
    (abs (m - (4 * n)) < n);
  Alcotest.(check int) "degrees consistent" m (degree_sum g);
  (* Same ensemble as the dense sampler: both must produce simple digraphs
     (create would reject duplicates or self-loops). *)
  Alcotest.(check bool) "deterministic" true
    (Digraph.edges g = Digraph.edges (Builders.erdos_renyi_sparse ~seed:11 n
       ~avg_out:4.0))

let test_small_world () =
  let n = 2000 and k = 3 in
  let g = Builders.small_world ~seed:5 n ~k ~beta:0.2 in
  Alcotest.(check int) "edge count fixed by lattice" (2 * n * k)
    (Digraph.num_edges g);
  Alcotest.(check bool) "symmetric (bidirectional links)" true
    (Digraph.is_symmetric g);
  let lattice = Builders.small_world ~seed:5 n ~k ~beta:0.0 in
  Alcotest.(check bool) "beta = 0 is the ring lattice" true
    (Digraph.mem_edge lattice ~src:0 ~dst:1
    && Digraph.mem_edge lattice ~src:0 ~dst:(n - k))

let test_preferential_attachment () =
  let n = 2000 and m = 2 in
  let g = Builders.preferential_attachment ~seed:5 n ~m in
  (* m + 1 clique core, then m undirected edges per remaining node; each
     undirected edge appears in both directions. *)
  let expected = 2 * (((m + 1) * m / 2) + ((n - m - 1) * m)) in
  Alcotest.(check int) "edge count" expected (Digraph.num_edges g);
  Alcotest.(check bool) "symmetric" true (Digraph.is_symmetric g);
  let dmax = ref 0 in
  for i = 0 to n - 1 do
    dmax := max !dmax (Digraph.out_degree g i)
  done;
  Alcotest.(check bool) "heavy tail: hubs emerge" true (!dmax > 4 * m)

(* Simulation across a generated graph: contagion-style threshold protocol
   on a small-world graph runs and counts events sanely. *)
let test_sim_on_generated_graph () =
  let g = Builders.small_world ~seed:3 500 ~k:2 ~beta:0.1 in
  let n = Digraph.num_nodes g in
  let space = Stateless_core.Label.bool in
  let react i () inputs =
    let adopted = Array.fold_left (fun a l -> if l then a + 1 else a) 0 inputs in
    let out = 2 * adopted >= Array.length inputs in
    (Array.make (Array.length (Digraph.out_edges g i)) out,
     if out then 1 else 0)
  in
  let p = { Protocol.name = "sw-threshold"; graph = g; space; react } in
  let input = Array.make n () in
  let init = Protocol.uniform_config p false in
  Array.iter
    (fun e -> init.Protocol.labels.(e) <- true)
    (Digraph.out_edges g 0);
  let sim = Eventsim.create ~seed:1 ~latency:(Eventsim.Pareto (1.5, 0.2)) p
      ~input ~init in
  let st = Eventsim.run sim ~horizon:30.0 in
  Alcotest.(check bool) "events processed" true (st.Eventsim.events > n);
  Alcotest.(check bool) "clock parked at horizon" true
    (Eventsim.time sim = 30.0)

let () =
  Alcotest.run "stateless_sim"
    [
      ( "sync-anchor",
        [
          Alcotest.test_case "matches kernel on proptest matrix" `Quick
            test_sync_matches_kernel;
          Alcotest.test_case "resumable horizons" `Quick test_sync_resumable;
          Alcotest.test_case "copy ring rotation" `Quick test_sync_copy_ring;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trajectory" `Quick
            test_async_deterministic;
          Alcotest.test_case "identical across domains" `Quick
            test_async_identical_across_domains;
          Alcotest.test_case "golden async trajectories" `Quick
            test_async_goldens;
        ] );
      ( "faults",
        [
          Alcotest.test_case "loss = 1 freezes labels" `Quick
            test_loss_one_freezes_labels;
          Alcotest.test_case "dup doubles pushes" `Quick
            test_dup_doubles_deliveries;
          Alcotest.test_case "crash suppresses reactions" `Quick
            test_crash_suppresses_reactions;
        ] );
      ( "generators",
        [
          Alcotest.test_case "sparse erdos-renyi" `Quick
            test_erdos_renyi_sparse;
          Alcotest.test_case "small world" `Quick test_small_world;
          Alcotest.test_case "preferential attachment" `Quick
            test_preferential_attachment;
          Alcotest.test_case "sim on generated graph" `Quick
            test_sim_on_generated_graph;
        ] );
    ]
