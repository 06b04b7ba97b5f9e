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
