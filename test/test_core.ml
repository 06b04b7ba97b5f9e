module Builders = Stateless_graph.Builders
module Digraph = Stateless_graph.Digraph
open Stateless_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Small protocols used as fixtures                                    *)
(* ------------------------------------------------------------------ *)

(* Every node copies its (single) incoming label onward: on a unidirectional
   ring, labels rotate forever unless the labeling is uniform. Every uniform
   labeling is stable, so by Theorem 3.1 this protocol cannot be label
   (n-1)-stabilizing. *)
let copy_ring n : (unit, bool) Protocol.t =
  let g = Builders.ring_uni n in
  {
    Protocol.name = "copy-ring";
    graph = g;
    space = Label.bool;
    react = (fun _ () incoming -> ([| incoming.(0) |], 0));
  }

(* Every node always writes [false]: unique stable labeling, converges in
   one activation of each node under any fair schedule. *)
let constant_ring n : (unit, bool) Protocol.t =
  let g = Builders.ring_uni n in
  {
    Protocol.name = "constant-ring";
    graph = g;
    space = Label.bool;
    react = (fun _ () _ -> ([| false |], 0));
  }

let unit_input n = Array.make n ()

(* ------------------------------------------------------------------ *)
(* Label spaces                                                        *)
(* ------------------------------------------------------------------ *)

let test_label_bool () =
  check "card" 2 Label.bool.Label.card;
  check "encode true" 1 (Label.bool.Label.encode true);
  check_bool "roundtrip" true (Label.check_roundtrip Label.bool)

let test_label_int () =
  let s = Label.int 7 in
  check "card" 7 s.Label.card;
  check_bool "roundtrip" true (Label.check_roundtrip s);
  Alcotest.check_raises "range"
    (Invalid_argument "Label.int: value out of range") (fun () ->
      ignore (s.Label.encode 7))

let test_label_pair () =
  let s = Label.pair (Label.int 3) Label.bool in
  check "card" 6 s.Label.card;
  check_bool "roundtrip" true (Label.check_roundtrip s);
  let x, b = s.Label.decode (s.Label.encode (2, true)) in
  check "fst" 2 x;
  check_bool "snd" true b

let test_label_triple () =
  let s = Label.triple Label.bool (Label.int 3) (Label.int 5) in
  check "card" 30 s.Label.card;
  check_bool "roundtrip" true (Label.check_roundtrip s)

let test_label_vector () =
  let s = Label.vector (Label.int 3) 4 in
  check "card" 81 s.Label.card;
  check_bool "roundtrip" true (Label.check_roundtrip s);
  let v = s.Label.decode (s.Label.encode [| 2; 0; 1; 2 |]) in
  Alcotest.(check (array int)) "decode" [| 2; 0; 1; 2 |] v

let test_label_complexity () =
  let s = Label.bool_vector 5 in
  check "bits" 5 (Label.bit_length s);
  Alcotest.(check (float 1e-9)) "complexity" 5.0 (Label.complexity s)

let test_label_enum () =
  let s =
    Label.enum [ "a"; "b"; "c" ]
      ~pp:Format.pp_print_string ~equal:String.equal
  in
  check "card" 3 s.Label.card;
  check "encode b" 1 (s.Label.encode "b");
  check_bool "roundtrip" true (Label.check_roundtrip s)

let prop_vector_roundtrip =
  QCheck.Test.make ~count:200 ~name:"vector roundtrip"
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 2 5))
              (QCheck.make QCheck.Gen.(int_range 1 6)))
    (fun (base, k) -> Label.check_roundtrip (Label.vector (Label.int base) k))

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let test_synchronous_is_1_fair () =
  let s = Schedule.synchronous 5 in
  check_bool "1-fair" true (Schedule.is_r_fair s ~n:5 ~r:1 ~horizon:50);
  check "fairness" 1 (Option.get (Schedule.fairness s ~n:5 ~horizon:50))

let test_round_robin_fairness () =
  let s = Schedule.round_robin 4 in
  check_bool "4-fair" true (Schedule.is_r_fair s ~n:4 ~r:4 ~horizon:100);
  check_bool "not 3-fair" false (Schedule.is_r_fair s ~n:4 ~r:3 ~horizon:100);
  check "fairness" 4 (Option.get (Schedule.fairness s ~n:4 ~horizon:100))

let test_block_rounds () =
  let s = Schedule.block_rounds [ [ 0; 1 ]; [ 2 ] ] in
  Alcotest.(check (list int)) "step 0" [ 0; 1 ] (s.Schedule.active 0);
  Alcotest.(check (list int)) "step 3" [ 2 ] (s.Schedule.active 3);
  check "period" 2 (Option.get s.Schedule.period)

let test_block_rounds_rejects_empty () =
  Alcotest.check_raises "empty schedule"
    (Invalid_argument "Schedule.block_rounds: empty schedule") (fun () ->
      ignore (Schedule.block_rounds []))

let test_random_fair_is_fair () =
  for seed = 0 to 4 do
    let s = Schedule.random_fair ~seed ~r:3 5 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d 3-fair" seed)
      true
      (Schedule.is_r_fair s ~n:5 ~r:3 ~horizon:300)
  done

let test_random_schedule_reproducible () =
  let s = Schedule.random_fair ~seed:42 ~r:2 4 in
  let a = s.Schedule.active 10 in
  let b = s.Schedule.active 10 in
  Alcotest.(check (list int)) "same set on re-query" a b

(* The bounded-replay memoization behind the randomized schedules must be
   observationally identical to querying every step in order: repeated and
   out-of-order queries — including jumps far past the live checkpoints —
   return exactly what a fresh instance queried sequentially returns. *)
let scrambled_matches_sequential make =
  let horizon = 140 in
  let reference =
    let s = make () in
    Array.init horizon (fun t -> s.Schedule.active t)
  in
  let s = make () in
  let probe t =
    Alcotest.(check (list int))
      (Printf.sprintf "step %d" t)
      reference.(t) (s.Schedule.active t)
  in
  List.iter probe [ 50; 7; 99; 7; 0; 73; 50; 120; 3; 99; 139; 1 ];
  for t = 0 to horizon - 1 do
    probe t
  done

let test_random_fair_out_of_order () =
  scrambled_matches_sequential (fun () -> Schedule.random_fair ~seed:7 ~r:2 4)

let test_random_singletons_out_of_order () =
  scrambled_matches_sequential (fun () -> Schedule.random_singletons ~seed:5 6)

let test_schedule_million_nodes_out_of_order () =
  (* n = 10^6: replay must not depend on node count — the event simulator
     leans on these schedules at exactly this scale. *)
  let n = 1_000_000 in
  let horizon = 200 in
  let reference =
    let s = Schedule.random_singletons ~seed:9 n in
    Array.init horizon (fun t -> s.Schedule.active t)
  in
  let s = Schedule.random_singletons ~seed:9 n in
  List.iter
    (fun t ->
      Alcotest.(check (list int))
        (Printf.sprintf "step %d" t)
        reference.(t) (s.Schedule.active t))
    [ 150; 3; 199; 0; 77; 3; 150; 42; 199 ]

let test_schedule_checkpoint_thinning () =
  (* Drive the frontier far enough that geometric checkpoint thinning has
     fired several times (64 live checkpoints at k = 16 is step 1024; 6000
     steps doubles k twice more), then replay scattered early steps: each
     must still reproduce the sequential draw exactly — for the aux-free
     schedule and for the countdown-carrying one, at n = 10^6 and small n
     alike. *)
  let far = 6_000 in
  let probes =
    [ 0; 1; 15; 16; 17; 1023; 1024; 1025; 2048; 3000; 4095; far - 1 ]
  in
  let check_sched make =
    let reference =
      let s = make () in
      Array.init far (fun t -> s.Schedule.active t)
    in
    let s = make () in
    ignore (s.Schedule.active (far - 1));
    List.iter
      (fun t ->
        Alcotest.(check (list int))
          (Printf.sprintf "step %d" t)
          reference.(t) (s.Schedule.active t))
      (probes @ List.rev probes)
  in
  check_sched (fun () -> Schedule.random_fair ~seed:13 ~r:3 5);
  check_sched (fun () -> Schedule.random_singletons ~seed:13 1_000_000)

let test_random_schedule_rejects_negative_step () =
  let s = Schedule.random_fair ~seed:1 ~r:2 3 in
  match s.Schedule.active (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_example1_schedule_fairness () =
  (* The paper's oscillation schedule for Example 1 is (n-1)-fair. *)
  for n = 3 to 6 do
    let s = Clique_example.oscillation_schedule n in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d (n-1)-fair" n)
      true
      (Schedule.is_r_fair s ~n ~r:(n - 1) ~horizon:(10 * n));
    if n > 3 then
      Alcotest.(check bool)
        (Printf.sprintf "n=%d not (n-2)-fair" n)
        false
        (Schedule.is_r_fair s ~n ~r:(n - 2) ~horizon:(10 * n))
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_step_is_atomic () =
  (* All scheduled nodes react to the *previous* configuration: on the copy
     ring a synchronous step rotates the labeling by one, it does not smear
     one label everywhere. *)
  let p = copy_ring 3 in
  let init = Protocol.config_of_labels p [| true; false; false |] in
  let next =
    Engine.step p ~input:(unit_input 3) init ~active:[ 0; 1; 2 ]
  in
  Alcotest.(check (array bool)) "rotated" [| false; true; false |]
    next.Protocol.labels

let test_run_steps () =
  let p = copy_ring 4 in
  let init = Protocol.config_of_labels p [| true; false; false; false |] in
  let final =
    Engine.run p ~input:(unit_input 4) ~init
      ~schedule:(Schedule.synchronous 4) ~steps:4
  in
  Alcotest.(check (array bool)) "full rotation" [| true; false; false; false |]
    final.Protocol.labels

let test_trace_length () =
  let p = constant_ring 3 in
  let init = Protocol.uniform_config p true in
  let tr =
    Engine.trace p ~input:(unit_input 3) ~init
      ~schedule:(Schedule.synchronous 3) ~steps:5
  in
  check "length" 6 (List.length tr)

let test_constant_stabilizes () =
  let p = constant_ring 4 in
  let init = Protocol.uniform_config p true in
  match
    Engine.run_until_stable p ~input:(unit_input 4) ~init
      ~schedule:(Schedule.synchronous 4) ~max_steps:100
  with
  | Engine.Stabilized { rounds; config } ->
      check_bool "rounds small" true (rounds <= 1);
      Alcotest.(check (array bool)) "all false" [| false; false; false; false |]
        config.Protocol.labels
  | _ -> Alcotest.fail "expected stabilization"

let test_copy_ring_oscillates () =
  let p = copy_ring 3 in
  let init = Protocol.config_of_labels p [| true; false; false |] in
  match
    Engine.run_until_stable p ~input:(unit_input 3) ~init
      ~schedule:(Schedule.synchronous 3) ~max_steps:100
  with
  | Engine.Oscillating { period; _ } -> check "period" 3 period
  | _ -> Alcotest.fail "expected oscillation"

let test_copy_ring_uniform_is_stable () =
  let p = copy_ring 3 in
  let init = Protocol.uniform_config p true in
  check_bool "stable" true (Protocol.is_stable p ~input:(unit_input 3) init);
  match
    Engine.run_until_stable p ~input:(unit_input 3) ~init
      ~schedule:(Schedule.synchronous 3) ~max_steps:10
  with
  | Engine.Stabilized { rounds; _ } -> check "immediate" 0 rounds
  | _ -> Alcotest.fail "expected stabilization"

let test_outputs_after_convergence_oscillating_labels () =
  (* Labels rotate forever but outputs are constant: output stabilization
     without label stabilization. *)
  let g = Builders.ring_uni 3 in
  let p : (unit, bool) Protocol.t =
    {
      Protocol.name = "rotor";
      graph = g;
      space = Label.bool;
      react = (fun _ () incoming -> ([| incoming.(0) |], 1));
    }
  in
  let init = Protocol.config_of_labels p [| true; false; false |] in
  match
    Engine.outputs_after_convergence p ~input:(unit_input 3) ~init
      ~schedule:(Schedule.synchronous 3) ~max_steps:100
  with
  | Some outs -> Alcotest.(check (array int)) "all ones" [| 1; 1; 1 |] outs
  | None -> Alcotest.fail "outputs should converge"

let test_output_divergence_detected () =
  (* A node that outputs the rotating label it sees never output-converges. *)
  let g = Builders.ring_uni 3 in
  let p : (unit, bool) Protocol.t =
    {
      Protocol.name = "parrot";
      graph = g;
      space = Label.bool;
      react =
        (fun _ () incoming ->
          ([| incoming.(0) |], if incoming.(0) then 1 else 0));
    }
  in
  let init = Protocol.config_of_labels p [| true; false; false |] in
  check_bool "no convergence" true
    (Engine.outputs_after_convergence p ~input:(unit_input 3) ~init
       ~schedule:(Schedule.synchronous 3) ~max_steps:100
    = None)

let test_encode_decode_config () =
  let p = copy_ring 4 in
  for code = 0 to 15 do
    let config = Protocol.decode_config p code in
    check "roundtrip" code (Protocol.encode_config p config)
  done

let test_config_key_distinguishes () =
  let p = copy_ring 4 in
  let a = Protocol.decode_config p 5 and b = Protocol.decode_config p 6 in
  check_bool "different" false
    (String.equal (Protocol.config_key p a) (Protocol.config_key p b));
  check_bool "equal" true
    (String.equal (Protocol.config_key p a)
       (Protocol.config_key p (Protocol.decode_config p 5)))

(* ------------------------------------------------------------------ *)
(* Stability                                                           *)
(* ------------------------------------------------------------------ *)

let test_stable_labelings_copy_ring () =
  (* Exactly the uniform labelings are stable. *)
  let p = copy_ring 4 in
  let stable = Stability.stable_labelings p ~input:(unit_input 4) in
  check "two stable labelings" 2 (List.length stable);
  check_bool "multiple" true
    (Stability.has_multiple_stable_labelings p ~input:(unit_input 4))

let test_stable_labelings_constant () =
  let p = constant_ring 4 in
  let stable = Stability.stable_labelings p ~input:(unit_input 4) in
  check "unique" 1 (List.length stable);
  check_bool "not multiple" false
    (Stability.has_multiple_stable_labelings p ~input:(unit_input 4))

let test_example1_has_two_stable_labelings () =
  let p = Clique_example.make 3 in
  check "two" 2
    (Stability.count_stable_labelings p ~input:(Clique_example.input 3))

(* Stable labelings are read off packed codes by the kernel; they must be
   exactly the labelings the boxed predicate accepts, in code order. *)
let test_stable_labelings_match_boxed () =
  let boxed p ~input =
    let acc = ref [] in
    Stability.iter_labelings p (fun labels ->
        if Protocol.is_stable p ~input (Protocol.config_of_labels p labels) then
          acc := Array.copy labels :: !acc);
    List.rev !acc
  in
  let same name p ~input =
    check_bool name true (boxed p ~input = Stability.stable_labelings p ~input)
  in
  same "copy ring" (copy_ring 4) ~input:(unit_input 4);
  same "constant ring" (constant_ring 4) ~input:(unit_input 4);
  List.iter
    (fun n ->
      same (Printf.sprintf "example1 K%d" n) (Clique_example.make n)
        ~input:(Clique_example.input n))
    [ 3; 4 ];
  (* Node-dependent reactions over three labels, two of them fixed on
     one in-view only. *)
  let mixed : (unit, int) Protocol.t =
    {
      Protocol.name = "mixed";
      graph = Stateless_graph.Builders.ring_bi 3;
      space = Label.int 3;
      react =
        (fun i () incoming ->
          let s = Array.fold_left ( + ) i incoming in
          (Array.map (fun _ -> if s mod 3 = i then incoming.(0) else s mod 3) incoming, s));
    }
  in
  same "mixed ring" mixed ~input:(unit_input 3);
  check "example1 K5" 2
    (Stability.count_stable_labelings (Clique_example.make 5)
       ~input:(Clique_example.input 5))

(* ------------------------------------------------------------------ *)
(* Generic protocol (Proposition 2.3)                                  *)
(* ------------------------------------------------------------------ *)

let parity bits = Array.fold_left (fun acc b -> acc <> b) false bits

let majority bits =
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
  2 * ones >= Array.length bits

let bool_inputs n =
  (* All 2^n input vectors for small n. *)
  List.init (1 lsl n) (fun code ->
      Array.init n (fun i -> code land (1 lsl (n - 1 - i)) <> 0))

let run_generic g f x =
  let p = Generic.make g f in
  let n = Digraph.num_nodes g in
  let init = Protocol.uniform_config p (Array.make (n + 1) true) in
  match
    Engine.run_until_stable p ~input:x ~init ~schedule:(Schedule.synchronous n)
      ~max_steps:(4 * n * n)
  with
  | Engine.Stabilized { rounds; config } ->
      let outs =
        Array.init n (fun i -> snd (Protocol.apply p ~input:x config i))
      in
      Some (rounds, outs)
  | _ -> None

let test_generic_parity_on_rings () =
  List.iter
    (fun g ->
      let n = Digraph.num_nodes g in
      List.iter
        (fun x ->
          match run_generic g parity x with
          | None -> Alcotest.fail "did not stabilize"
          | Some (rounds, outs) ->
              let expect = if parity x then 1 else 0 in
              Array.iter (fun y -> check "output" expect y) outs;
              check_bool "rounds <= 2n + 1" true (rounds <= (2 * n) + 1))
        (bool_inputs n))
    [ Builders.ring_uni 4; Builders.ring_bi 5; Builders.clique 4 ]

let test_generic_majority_random_graphs () =
  for seed = 0 to 2 do
    let g = Builders.random_strongly_connected ~seed 6 ~extra:4 in
    List.iter
      (fun x ->
        match run_generic g majority x with
        | None -> Alcotest.fail "did not stabilize"
        | Some (_, outs) ->
            let expect = if majority x then 1 else 0 in
            Array.iter (fun y -> check "output" expect y) outs)
      [
        [| true; true; true; false; false; false |];
        [| true; true; true; true; false; false |];
        [| false; false; false; false; false; true |];
      ]
  done

let test_generic_label_complexity () =
  let g = Builders.ring_bi 5 in
  let p = Generic.make g parity in
  check "bits" 6 (Label.bit_length p.Protocol.space);
  check "label_bits" 6 (Generic.label_bits g);
  check "round bound" 10 (Generic.round_bound g)

let test_generic_self_stabilizes_from_random () =
  (* Self-stabilization: any initial labeling converges to the right
     answer. *)
  let g = Builders.ring_bi 5 in
  let p = Generic.make g parity in
  let x = [| true; false; true; true; false |] in
  let expect = if parity x then 1 else 0 in
  let state = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let labels =
      Array.init (Protocol.num_edges p) (fun _ ->
          Array.init 6 (fun _ -> Random.State.bool state))
    in
    let init = Protocol.config_of_labels p labels in
    match
      Engine.outputs_after_convergence p ~input:x ~init
        ~schedule:(Schedule.synchronous 5) ~max_steps:200
    with
    | Some outs -> Array.iter (fun y -> check "output" expect y) outs
    | None -> Alcotest.fail "did not converge"
  done

let test_generic_converges_under_round_robin () =
  let g = Builders.clique 4 in
  let p = Generic.make g majority in
  let x = [| true; true; false; false |] in
  let init = Protocol.uniform_config p (Array.make 5 false) in
  match
    Engine.outputs_after_convergence p ~input:x ~init
      ~schedule:(Schedule.round_robin 4) ~max_steps:500
  with
  | Some outs ->
      Array.iter (fun y -> check "output" 1 y) outs
  | None -> Alcotest.fail "did not converge under round robin"

(* ------------------------------------------------------------------ *)
(* Example 1 (clique)                                                  *)
(* ------------------------------------------------------------------ *)

let test_example1_synchronous_converges () =
  let p = Clique_example.make 4 in
  let init = Clique_example.oscillation_init p in
  match
    Engine.run_until_stable p ~input:(Clique_example.input 4) ~init
      ~schedule:(Schedule.synchronous 4) ~max_steps:50
  with
  | Engine.Stabilized { config; _ } ->
      Alcotest.(check bool) "all ones" true
        (Array.for_all (fun b -> b) config.Protocol.labels)
  | _ -> Alcotest.fail "synchronous run should converge"

let test_example1_oscillates_under_paper_schedule () =
  for n = 3 to 6 do
    let p = Clique_example.make n in
    let init = Clique_example.oscillation_init p in
    match
      Engine.run_until_stable p ~input:(Clique_example.input n) ~init
        ~schedule:(Clique_example.oscillation_schedule n)
        ~max_steps:(100 * n)
    with
    | Engine.Oscillating { period; _ } ->
        check_bool
          (Printf.sprintf "n=%d period multiple of n" n)
          true (period mod n = 0)
    | _ -> Alcotest.fail (Printf.sprintf "n=%d should oscillate" n)
  done

(* ------------------------------------------------------------------ *)
(* Extremal protocol (Lemma C.2)                                       *)
(* ------------------------------------------------------------------ *)

let test_extremal_rounds () =
  List.iter
    (fun (n, q) ->
      let p = Extremal.make ~n ~q in
      let init = Extremal.slow_init p in
      match
        Engine.label_stabilization_time p ~input:(Extremal.input n) ~init
          ~schedule:(Schedule.synchronous n)
          ~max_steps:(4 * n * q)
      with
      | Some t ->
          let predicted = Extremal.predicted_rounds ~n ~q in
          check_bool
            (Printf.sprintf "n=%d q=%d time %d within [pred, pred+n]" n q t)
            true
            (t >= predicted && t <= predicted + n);
          check_bool "within generic bound" true
            (t <= Extremal.upper_bound ~n ~q)
      | None -> Alcotest.fail "did not stabilize")
    [ (3, 2); (3, 4); (5, 3); (7, 2); (4, 5) ]

let test_extremal_outputs_all_one () =
  let p = Extremal.make ~n:4 ~q:3 in
  let init = Extremal.slow_init p in
  match
    Engine.outputs_after_convergence p ~input:(Extremal.input 4) ~init
      ~schedule:(Schedule.synchronous 4) ~max_steps:100
  with
  | Some outs -> Alcotest.(check (array int)) "ones" [| 1; 1; 1; 1 |] outs
  | None -> Alcotest.fail "did not converge"

(* ------------------------------------------------------------------ *)
(* Unidirectional sequential machine                                   *)
(* ------------------------------------------------------------------ *)

let test_is_unidirectional_ring () =
  check_bool "uni ring yes" true
    (Unidirectional.is_unidirectional_ring (copy_ring 5));
  let p = Clique_example.make 3 in
  check_bool "clique no" false (Unidirectional.is_unidirectional_ring p)

let test_sequential_agrees_with_synchronous () =
  let p = Extremal.make ~n:4 ~q:3 in
  match
    Unidirectional.agrees_with_synchronous p ~input:(Extremal.input 4)
      ~start:0 ~max_steps:200
  with
  | Some ok -> check_bool "agree" true ok
  | None -> Alcotest.fail "synchronous run did not converge"

let test_round_complexity_bound () =
  let p = Extremal.make ~n:4 ~q:3 in
  check "bound" 12 (Option.get (Unidirectional.round_complexity_bound p));
  check_bool "none for clique" true
    (Unidirectional.round_complexity_bound (Clique_example.make 3) = None)

(* ------------------------------------------------------------------ *)
(* One-round protocols on well-connected topologies (Section 5 intro)  *)
(* ------------------------------------------------------------------ *)

let test_one_round_clique_all_functions_n3 () =
  (* Every Boolean function on 3 bits, 1-bit labels, correct outputs after
     one round and label-stable. *)
  for table = 0 to 255 do
    let f bits =
      let idx =
        Array.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0 bits
      in
      table land (1 lsl idx) <> 0
    in
    let p = One_round.clique 3 f in
    List.iter
      (fun x ->
        let init = Protocol.uniform_config p false in
        let after =
          Engine.run p ~input:x ~init ~schedule:(Schedule.synchronous 3)
            ~steps:2
        in
        let expect = if f x then 1 else 0 in
        Array.iter
          (fun y -> check "one-round output" expect y)
          after.Protocol.outputs;
        check_bool "labels stable" true
          (Protocol.is_stable p ~input:x after))
      (bool_inputs 3)
  done

let test_one_round_clique_single_round () =
  let p = One_round.clique 4 majority in
  let x = [| true; true; false; true |] in
  let init = Protocol.uniform_config p false in
  (* After exactly one synchronous round the labels are the inputs; one
     more refresh and every output is correct. Outputs may already be
     correct at round one from the all-false start only by luck, so we
     check the paper's claim at the fixed point. *)
  match
    Engine.output_stabilization_time p ~input:x ~init
      ~schedule:(Schedule.synchronous 4) ~max_steps:10
  with
  | Some t -> check_bool "within two rounds" true (t <= 2)
  | None -> Alcotest.fail "must converge"

let test_one_round_star () =
  let p = One_round.star 5 parity in
  List.iter
    (fun x ->
      let init = Protocol.uniform_config p false in
      match
        Engine.outputs_after_convergence p ~input:x ~init
          ~schedule:(Schedule.synchronous 5) ~max_steps:10
      with
      | Some outs ->
          let expect = if parity x then 1 else 0 in
          Array.iter (fun y -> check "star output" expect y) outs
      | None -> Alcotest.fail "star must converge")
    (bool_inputs 5)

let test_one_round_star_self_stabilizes () =
  let p = One_round.star 4 majority in
  let x = [| true; false; true; true |] in
  let state = Random.State.make [| 3 |] in
  for _ = 1 to 10 do
    let labels =
      Array.init (Protocol.num_edges p) (fun _ -> Random.State.bool state)
    in
    match
      Engine.outputs_after_convergence p ~input:x
        ~init:(Protocol.config_of_labels p labels)
        ~schedule:(Schedule.synchronous 4) ~max_steps:10
    with
    | Some outs -> Array.iter (fun y -> check "output" 1 y) outs
    | None -> Alcotest.fail "must converge"
  done

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let test_render_node_bits () =
  let p = Clique_example.make 3 in
  let s =
    Render.node_bits_over_time p ~input:(Clique_example.input 3)
      ~init:(Clique_example.oscillation_init p)
      ~schedule:(Schedule.synchronous 3) ~steps:3
  in
  let lines = String.split_on_char '\n' s in
  check "header + 3 rows + trailing" 5 (List.length lines);
  check_bool "second row all hot" true
    (List.exists (fun l -> String.length l > 6 &&
        String.sub l (String.length l - 3) 3 = "###") lines)

let test_render_outputs_shape () =
  let p = Extremal.make ~n:3 ~q:2 in
  let s =
    Render.outputs_over_time p ~input:(Extremal.input 3)
      ~init:(Extremal.slow_init p)
      ~schedule:(Schedule.synchronous 3) ~steps:5
  in
  check "rows" 7 (List.length (String.split_on_char '\n' s))

let test_render_labels_shape () =
  let p = Extremal.make ~n:3 ~q:3 in
  let s =
    Render.labels_over_time p ~input:(Extremal.input 3)
      ~init:(Extremal.slow_init p)
      ~schedule:(Schedule.synchronous 3) ~steps:4
  in
  let lines = String.split_on_char '\n' s in
  check "rows" 6 (List.length lines);
  check_bool "edge names in header" true
    (match lines with
    | header :: _ ->
        String.length header > 0
        && String.index_opt header '>' <> None
    | [] -> false)

(* ------------------------------------------------------------------ *)
(* Engine invariants (property tests)                                  *)
(* ------------------------------------------------------------------ *)

let example1_with_labels n code =
  let p = Clique_example.make n in
  (p, Protocol.decode_config p (code mod (1 lsl Protocol.num_edges p)))

let prop_step_empty_active_is_identity =
  QCheck.Test.make ~count:50 ~name:"step with no activations changes nothing"
    (QCheck.make QCheck.Gen.(pair (int_range 3 4) (int_bound 4000)))
    (fun (n, code) ->
      let p, config = example1_with_labels n code in
      let next = Engine.step p ~input:(Clique_example.input n) config ~active:[] in
      String.equal (Protocol.config_key p config) (Protocol.config_key p next))

let prop_stable_is_fixed_under_any_activation =
  QCheck.Test.make ~count:100
    ~name:"stable labelings are fixed under every activation set"
    (QCheck.make
       QCheck.Gen.(triple (int_range 3 4) (int_bound 4000) (int_bound 15)))
    (fun (n, code, mask) ->
      let p, config = example1_with_labels n code in
      let input = Clique_example.input n in
      if not (Protocol.is_stable p ~input config) then true
      else begin
        let active =
          List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)
        in
        let next = Engine.step p ~input config ~active in
        String.equal (Protocol.config_key p config)
          (Protocol.config_key p next)
      end)

let prop_stabilized_verdict_is_stable =
  QCheck.Test.make ~count:60
    ~name:"run_until_stable's final labeling really is stable"
    (QCheck.make QCheck.Gen.(pair (int_range 3 4) (int_bound 4000)))
    (fun (n, code) ->
      let p, init = example1_with_labels n code in
      let input = Clique_example.input n in
      match
        Engine.run_until_stable p ~input ~init
          ~schedule:(Schedule.synchronous n) ~max_steps:200
      with
      | Engine.Stabilized { config; _ } -> Protocol.is_stable p ~input config
      | Engine.Oscillating _ | Engine.Exhausted _ -> false)

let prop_run_equals_iterated_step =
  QCheck.Test.make ~count:40 ~name:"run = iterated step"
    (QCheck.make
       QCheck.Gen.(triple (int_range 3 4) (int_bound 4000) (int_range 0 10)))
    (fun (n, code, steps) ->
      let p, init = example1_with_labels n code in
      let input = Clique_example.input n in
      let schedule = Schedule.round_robin n in
      let via_run = Engine.run p ~input ~init ~schedule ~steps in
      let via_steps = ref init in
      for t = 0 to steps - 1 do
        via_steps :=
          Engine.step p ~input !via_steps ~active:(schedule.Schedule.active t)
      done;
      String.equal (Protocol.config_key p via_run)
        (Protocol.config_key p !via_steps))

let prop_trace_consistent_with_run =
  QCheck.Test.make ~count:40 ~name:"trace ends where run ends"
    (QCheck.make QCheck.Gen.(pair (int_bound 4000) (int_range 1 8)))
    (fun (code, steps) ->
      let p, init = example1_with_labels 3 code in
      let input = Clique_example.input 3 in
      let schedule = Schedule.synchronous 3 in
      let tr = Engine.trace p ~input ~init ~schedule ~steps in
      let final = Engine.run p ~input ~init ~schedule ~steps in
      List.length tr = steps + 1
      && String.equal
           (Protocol.config_key p (List.nth tr steps))
           (Protocol.config_key p final))

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_vector_roundtrip;
      prop_step_empty_active_is_identity;
      prop_stable_is_fixed_under_any_activation;
      prop_stabilized_verdict_is_stable;
      prop_run_equals_iterated_step;
      prop_trace_consistent_with_run;
    ]

let () =
  Alcotest.run "stateless_core"
    [
      ( "label",
        [
          Alcotest.test_case "bool" `Quick test_label_bool;
          Alcotest.test_case "int" `Quick test_label_int;
          Alcotest.test_case "pair" `Quick test_label_pair;
          Alcotest.test_case "triple" `Quick test_label_triple;
          Alcotest.test_case "vector" `Quick test_label_vector;
          Alcotest.test_case "complexity" `Quick test_label_complexity;
          Alcotest.test_case "enum" `Quick test_label_enum;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "synchronous 1-fair" `Quick
            test_synchronous_is_1_fair;
          Alcotest.test_case "round robin fairness" `Quick
            test_round_robin_fairness;
          Alcotest.test_case "block rounds" `Quick test_block_rounds;
          Alcotest.test_case "rejects empty" `Quick
            test_block_rounds_rejects_empty;
          Alcotest.test_case "random fair is fair" `Quick
            test_random_fair_is_fair;
          Alcotest.test_case "random reproducible" `Quick
            test_random_schedule_reproducible;
          Alcotest.test_case "random fair out of order" `Quick
            test_random_fair_out_of_order;
          Alcotest.test_case "random singletons out of order" `Quick
            test_random_singletons_out_of_order;
          Alcotest.test_case "million-node out of order" `Quick
            test_schedule_million_nodes_out_of_order;
          Alcotest.test_case "checkpoint thinning replay" `Quick
            test_schedule_checkpoint_thinning;
          Alcotest.test_case "negative step rejected" `Quick
            test_random_schedule_rejects_negative_step;
          Alcotest.test_case "example1 schedule fairness" `Quick
            test_example1_schedule_fairness;
        ] );
      ( "engine",
        [
          Alcotest.test_case "step atomic" `Quick test_step_is_atomic;
          Alcotest.test_case "run steps" `Quick test_run_steps;
          Alcotest.test_case "trace length" `Quick test_trace_length;
          Alcotest.test_case "constant stabilizes" `Quick
            test_constant_stabilizes;
          Alcotest.test_case "copy ring oscillates" `Quick
            test_copy_ring_oscillates;
          Alcotest.test_case "uniform copy ring stable" `Quick
            test_copy_ring_uniform_is_stable;
          Alcotest.test_case "output conv with rotating labels" `Quick
            test_outputs_after_convergence_oscillating_labels;
          Alcotest.test_case "output divergence detected" `Quick
            test_output_divergence_detected;
          Alcotest.test_case "encode/decode config" `Quick
            test_encode_decode_config;
          Alcotest.test_case "config keys" `Quick test_config_key_distinguishes;
        ] );
      ( "stability",
        [
          Alcotest.test_case "copy ring stable labelings" `Quick
            test_stable_labelings_copy_ring;
          Alcotest.test_case "constant unique" `Quick
            test_stable_labelings_constant;
          Alcotest.test_case "example1 two stable" `Quick
            test_example1_has_two_stable_labelings;
          Alcotest.test_case "packed count matches boxed predicate" `Quick
            test_stable_labelings_match_boxed;
        ] );
      ( "generic-prop-2.3",
        [
          Alcotest.test_case "parity on rings and clique" `Slow
            test_generic_parity_on_rings;
          Alcotest.test_case "majority on random graphs" `Quick
            test_generic_majority_random_graphs;
          Alcotest.test_case "label complexity n+1" `Quick
            test_generic_label_complexity;
          Alcotest.test_case "self-stabilizes from random" `Quick
            test_generic_self_stabilizes_from_random;
          Alcotest.test_case "converges under round robin" `Quick
            test_generic_converges_under_round_robin;
        ] );
      ( "example1",
        [
          Alcotest.test_case "synchronous converges" `Quick
            test_example1_synchronous_converges;
          Alcotest.test_case "oscillates under paper schedule" `Quick
            test_example1_oscillates_under_paper_schedule;
        ] );
      ( "extremal",
        [
          Alcotest.test_case "rounds = n(q-1)" `Quick test_extremal_rounds;
          Alcotest.test_case "outputs one" `Quick test_extremal_outputs_all_one;
        ] );
      ( "unidirectional",
        [
          Alcotest.test_case "ring recognition" `Quick
            test_is_unidirectional_ring;
          Alcotest.test_case "sequential = synchronous" `Quick
            test_sequential_agrees_with_synchronous;
          Alcotest.test_case "round bound" `Quick test_round_complexity_bound;
        ] );
      ( "one-round",
        [
          Alcotest.test_case "clique: all 3-bit functions" `Slow
            test_one_round_clique_all_functions_n3;
          Alcotest.test_case "clique: single round" `Quick
            test_one_round_clique_single_round;
          Alcotest.test_case "star" `Quick test_one_round_star;
          Alcotest.test_case "star self-stabilizes" `Quick
            test_one_round_star_self_stabilizes;
        ] );
      ( "render",
        [
          Alcotest.test_case "node bits" `Quick test_render_node_bits;
          Alcotest.test_case "outputs shape" `Quick test_render_outputs_shape;
          Alcotest.test_case "labels shape" `Quick test_render_labels_shape;
        ] );
      ("properties", qcheck_tests);
    ]
