(* Exhaustive certification of (r, B)-stabilization under Byzantine nodes.

   The plain checker ({!Stateless_checker.Checker}) decides whether a
   protocol r-stabilizes from every initial labeling under every r-fair
   schedule, assuming every node runs its reaction function. This module
   strengthens the adversary along the classic companion axis to
   self-stabilization: a designated set B of nodes is {e Byzantine} — on
   every activation such a node writes arbitrary labels of its own
   choosing onto its out-edges instead of running the protocol. The
   question becomes whether the {e correct} nodes' labels (resp.
   outputs) still stabilize under every Byzantine behavior and every
   r-fair schedule.

   The Byzantine nodes are an adversary inside the transition relation.
   The states-graph is exactly the plain checker's — a state is
   (labeling, fairness countdown) — but an activation set that includes
   Byzantine nodes yields one out-edge per assignment of labels to the
   activated Byzantine nodes' out-edges (all of Σ per edge). Correct
   nodes in the set react through the transition cache as usual;
   Byzantine activations also tick the fairness countdown, because a
   schedule that activates a Byzantine node gives it its write
   opportunity (doing nothing is one of its choices, since rewriting the
   current label is an admissible assignment). The [changed] bit of an
   edge tracks only the correct nodes' step — Byzantine writes never
   count as protocol divergence — and output conflicts are only
   collected at correct nodes. With B = ∅ no branching happens, every
   mask keeps its single out-edge and the graph is literally the plain
   checker's states-graph, so verdicts agree by construction (the
   differential tests and the fuzzer assert this).

   This module only defines that adversary, decodes its choice codes
   into writes and computes {!containment}; exploration, SCCs, lassos,
   the output-conflict scan and witness replay (on the boxed engine and
   on the packed kernel) are the shared back end
   ({!Stateless_checker.Stategraph}) of all three certifiers. A witness
   step is an activation set plus the (edge, code) writes the Byzantine
   nodes perform after the correct nodes' reactions land.

   Beyond the global verdict, {!containment} reports each correct
   node's fate separately and keys it by graph distance from B: the
   containment radius is the largest distance at which some correct
   node can still be made to output-diverge. *)

module Protocol = Stateless_core.Protocol
module Label = Stateless_core.Label
module Stategraph = Stateless_checker.Stategraph
module Digraph = Stateless_graph.Digraph
module Algorithms = Stateless_graph.Algorithms

type write = { edge : int; code : int }
type step = { active : int list; writes : write list }

type witness = {
  init_code : int;
  prefix : step list;
  cycle : step list;
}

type verdict =
  | Stabilizing
  | Oscillating of witness
  | Too_large of { needed : int }

type stats = { states : int; edges : int }

let last_stats_ref : stats option ref = ref None
let last_stats () = !last_stats_ref

let byz_mask_of n byz =
  let mask = ref 0 in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Byzcheck: node %d out of range" i);
      if !mask land (1 lsl i) <> 0 then
        invalid_arg (Printf.sprintf "Byzcheck: duplicate Byzantine node %d" i);
      mask := !mask lor (1 lsl i))
    byz;
  !mask

(* Concatenated out-edges of the Byzantine nodes in [bz], ascending node
   order. *)
let byz_edges_of out_edges bz =
  Array.concat
    (List.filteri (fun i _ -> bz land (1 lsl i) <> 0) (Array.to_list out_edges))

(* Decode assignment code [a] over edge list [edges] (first edge most
   significant) into (edge, code) writes. *)
let writes_of_choice ~card edges a =
  let l = Array.length edges in
  let rem = ref a in
  let out = ref [] in
  for i = l - 1 downto 0 do
    out := { edge = edges.(i); code = !rem mod card } :: !out;
    rem := !rem / card
  done;
  !out

type ('x, 'l) explored = {
  g : Stategraph.t;
  cache : ('x, 'l) Stateless_checker.Trans_cache.t;
  witness_of : Stategraph.lasso -> witness;
}

(* The adversary has no state of its own (the graph keeps the plain
   checker's keys, [lab * cd_count + cd], whatever B is) and only the
   correct nodes react. An activation set that includes Byzantine nodes
   branches over every assignment of labels to their out-edges: the edge
   choice code is a mixed-radix code over the activated Byzantine nodes'
   out-edges (ascending node order, each node's out-edge order, first edge
   most significant), or -1 when no Byzantine node was activated.
   Byzantine activations still tick the fairness countdown: a schedule
   that picks a Byzantine node has given it its turn. *)
let explore p ~input ~byz ~r ~max_states =
  let n = Protocol.num_nodes p in
  Stategraph.validate ~who:"Byzcheck" ~n ~r;
  let byz_mask = byz_mask_of n byz in
  let m = Protocol.num_edges p in
  let card = p.Protocol.space.Label.card in
  let out_edges = Array.init n (Digraph.out_edges p.Protocol.graph) in
  (* weight.(e) = card^(m-1-e): edge 0 most significant. *)
  let weight = Array.init m (fun e -> Stategraph.ipow card (m - 1 - e)) in
  (* Per-submask-of-B edge lists, memoized (2^|B| entries). *)
  let edges_tbl : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let edges_of bz =
    match Hashtbl.find_opt edges_tbl bz with
    | Some e -> e
    | None ->
        let e = byz_edges_of out_edges bz in
        Hashtbl.replace edges_tbl bz e;
        e
  in
  let successors ~mask ~adv:_ ~lab emit =
    let bz = mask land byz_mask in
    if bz = 0 then emit lab 0 (-1)
    else begin
      let edges = edges_of bz in
      let relabel lab' { edge; code } =
        let w = weight.(edge) in
        lab' + ((code - (lab / w mod card)) * w)
      in
      for a = 0 to Stategraph.ipow card (Array.length edges) - 1 do
        emit (List.fold_left relabel lab (writes_of_choice ~card edges a)) 0 a
      done
    end
  in
  (* Worst branching factor: all of B active at once. The state space
     never grows with B, but the edge space does, so Too_large budgets
     states x branching. *)
  let byz_out =
    List.fold_left (fun acc i -> acc + Array.length out_edges.(i)) 0 byz
  in
  match
    Stategraph.explore p ~input ~r ~max_states
      {
        Stategraph.phases = 1;
        init = 0;
        react = lnot byz_mask;
        branch = Stategraph.ipow_sat card byz_out;
        successors;
      }
  with
  | Error needed -> Error needed
  | Ok (g, cache) ->
      last_stats_ref :=
        Some
          { states = Stategraph.num_states g; edges = Stategraph.num_edges g };
      let step e =
        let mask = Stategraph.mask g e and a = Stategraph.choice g e in
        {
          active = Stategraph.nodes_of_mask n mask;
          writes =
            (if a < 0 then []
             else writes_of_choice ~card (edges_of (mask land byz_mask)) a);
        }
      in
      let witness_of (l : Stategraph.lasso) =
        {
          init_code = l.init_code;
          prefix = List.map step l.prefix;
          cycle = List.map step l.cycle;
        }
      in
      Ok { g; cache; witness_of }

let check_label p ~input ~byz ~r ~max_states =
  match explore p ~input ~byz ~r ~max_states with
  | Error needed -> Too_large { needed }
  | Ok ex -> (
      match Stategraph.label_lasso ex.g (Stategraph.scc ex.g) with
      | None -> Stabilizing
      | Some l -> Oscillating (ex.witness_of l))

let check_output p ~input ~byz ~r ~max_states =
  match explore p ~input ~byz ~r ~max_states with
  | Error needed -> Too_large { needed }
  | Ok ex -> (
      let comp = Stategraph.scc ex.g in
      match
        Hashtbl.fold (fun _ c _ -> Some c)
          (Stategraph.output_conflicts ex.g comp ex.cache ~stop_at_first:true)
          None
      with
      | None -> Stabilizing
      | Some c ->
          Oscillating (ex.witness_of (Stategraph.conflict_lasso ex.g comp c)))

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

type node_fate = { node : int; distance : int; stabilizes : bool }

type containment = {
  byz : int list;
  fates : node_fate list;  (* correct nodes, ascending *)
  stabilized_fraction : float;
  radius : int option;  (* None when every correct node stabilizes *)
  witness : witness option;  (* diverging node at maximal distance *)
}

(* Hop distance from the Byzantine set (min over its members); -1 for
   unreachable nodes, and for every node when B is empty. *)
let distances_from_byz g byz =
  let n = Digraph.num_nodes g in
  let dist = Array.make n (-1) in
  List.iter
    (fun b ->
      let d = Algorithms.bfs_distances g b in
      for i = 0 to n - 1 do
        if d.(i) >= 0 && (dist.(i) < 0 || d.(i) < dist.(i)) then
          dist.(i) <- d.(i)
      done)
    byz;
  dist

let containment p ~input ~byz ~r ~max_states =
  match explore p ~input ~byz ~r ~max_states with
  | Error needed -> Error needed
  | Ok ex ->
      let comp = Stategraph.scc ex.g in
      let conflicts =
        Stategraph.output_conflicts ex.g comp ex.cache ~stop_at_first:false
      in
      let byz = List.sort_uniq compare byz in
      let dist = distances_from_byz p.Protocol.graph byz in
      let fates = ref [] in
      let stable = ref 0 and correct = ref 0 in
      let radius = ref (-1) in
      let worst = ref None in
      for node = Protocol.num_nodes p - 1 downto 0 do
        if ex.g.react land (1 lsl node) <> 0 then begin
          incr correct;
          let diverges = Hashtbl.mem conflicts node in
          if diverges then begin
            if dist.(node) > !radius then begin
              radius := dist.(node);
              worst := Some node
            end
          end
          else incr stable;
          fates :=
            { node; distance = dist.(node); stabilizes = not diverges }
            :: !fates
        end
      done;
      let witness =
        match !worst with
        | None -> None
        | Some node ->
            Some
              (ex.witness_of
                 (Stategraph.conflict_lasso ex.g comp
                    (Hashtbl.find conflicts node)))
      in
      Ok
        {
          byz;
          fates = !fates;
          stabilized_fraction =
            (if !correct = 0 then 1.0 else float !stable /. float !correct);
          radius = (if !worst = None then None else Some !radius);
          witness;
        }

(* ------------------------------------------------------------------ *)
(* Witness replay                                                      *)
(* ------------------------------------------------------------------ *)

(* Both replays run the correct members of each activation set, then
   land the step's Byzantine writes; divergence is judged on the correct
   nodes alone. *)
let steps_of p ~byz w =
  let byz_mask = byz_mask_of (Protocol.num_nodes p) byz in
  let step { active; writes } =
    {
      Stategraph.react =
        List.filter (fun i -> byz_mask land (1 lsl i) = 0) active;
      writes = List.map (fun { edge; code } -> (edge, code)) writes;
    }
  in
  (List.map step w.prefix, List.map step w.cycle)

let replay p ~input ~byz w =
  let prefix, cycle = steps_of p ~byz w in
  Stategraph.replay p ~input ~init_code:w.init_code ~prefix ~cycle

let replay_packed p ~input ~byz w =
  let prefix, cycle = steps_of p ~byz w in
  Stategraph.replay_packed p ~input ~init_code:w.init_code ~prefix ~cycle
