module Digraph = Stateless_graph.Digraph
module Protocol = Stateless_core.Protocol

type t = {
  n : int;
  m : int;
  node_perms : int array array;
  edge_perms : int array array;
  gens : int array array;
}

let order t = Array.length t.node_perms
let num_nodes t = t.n
let num_edges t = t.m
let node_perms t = t.node_perms
let edge_perms t = t.edge_perms
let generators t = t.gens

let is_permutation n p =
  Array.length p = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
    p

(* The edge permutation induced by node permutation [p], or [None] when
   [p] is not an automorphism of [g]. *)
let edge_perm_of g p =
  let m = Digraph.num_edges g in
  let ep = Array.make m (-1) in
  let ok = ref true in
  for e = 0 to m - 1 do
    let u, v = Digraph.edge g e in
    match Digraph.find_edge g ~src:p.(u) ~dst:p.(v) with
    | Some e' -> ep.(e) <- e'
    | None -> ok := false
  done;
  if !ok then Some ep else None

let perm_key p = String.init (Array.length p) (fun i -> Char.chr p.(i))

let identity n = Array.init n Fun.id
let is_identity p = Array.for_all2 ( = ) p (identity (Array.length p))

(* Assemble a [t] from node permutations known to form a group; moves the
   identity to index 0 and derives edge permutations (validating that each
   element is an automorphism on the way). *)
let make ~what g perms ~gens =
  let n = Digraph.num_nodes g in
  let id, rest = List.partition is_identity perms in
  if id = [] then
    invalid_arg (Printf.sprintf "Symmetry.%s: missing identity" what);
  let nps = Array.of_list (identity n :: rest) in
  let eps =
    Array.map
      (fun p ->
        match edge_perm_of g p with
        | Some ep -> ep
        | None ->
            invalid_arg
              (Printf.sprintf "Symmetry.%s: permutation is not an automorphism"
                 what))
      nps
  in
  { n; m = Digraph.num_edges g; node_perms = nps; edge_perms = eps; gens }

let of_node_perms g perms =
  let n = Digraph.num_nodes g in
  List.iter
    (fun p ->
      if not (is_permutation n p) then
        invalid_arg "Symmetry.of_node_perms: not a permutation of the nodes")
    perms;
  (* Dedupe and force the identity in. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace tbl (perm_key p) (Array.copy p))
    (identity n :: perms);
  let elems = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
  (* Closure under composition: for a finite subset of a finite group,
     closure under the (total) operation is exactly the subgroup test. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = Array.init n (fun i -> a.(b.(i))) in
          if not (Hashtbl.mem tbl (perm_key c)) then
            invalid_arg
              "Symmetry.of_node_perms: set is not closed under composition")
        elems)
    elems;
  let gens = List.filter (fun p -> not (is_identity p)) elems in
  make ~what:"of_node_perms" g elems ~gens:(Array.of_list gens)

let clique g =
  let n = Digraph.num_nodes g in
  if n > 8 then invalid_arg "Symmetry.clique: n > 8 (group has n! elements)";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && not (Digraph.mem_edge g ~src:i ~dst:j) then
        invalid_arg "Symmetry.clique: graph is not a clique"
    done
  done;
  (* All n! permutations by Heap's algorithm. S_n is a group by
     construction, so no closure check is needed (it would be n!^2). *)
  let perms = ref [] in
  let a = identity n in
  let rec heap k =
    if k <= 1 then perms := Array.copy a :: !perms
    else
      for i = 0 to k - 1 do
        heap (k - 1);
        if i < k - 1 then begin
          let j = if k land 1 = 0 then i else 0 in
          let tmp = a.(j) in
          a.(j) <- a.(k - 1);
          a.(k - 1) <- tmp
        end
      done
  in
  heap n;
  (* Adjacent transpositions generate S_n. *)
  let gens =
    Array.init (max 0 (n - 1)) (fun k ->
        let p = identity n in
        p.(k) <- k + 1;
        p.(k + 1) <- k;
        p)
  in
  make ~what:"clique" g !perms ~gens

let ring g =
  let n = Digraph.num_nodes g in
  let rotation k = Array.init n (fun i -> (i + k) mod n) in
  let reflection k = Array.init n (fun i -> ((k - i) mod n + n) mod n) in
  let candidates =
    List.init n rotation @ List.init n reflection
  in
  (* Aut(G) ∩ D_n is an intersection of groups, hence a group. *)
  let surviving =
    List.filter (fun p -> edge_perm_of g p <> None) candidates
  in
  if n >= 2 && edge_perm_of g (rotation 1) = None then
    invalid_arg "Symmetry.ring: rotation by 1 is not an automorphism";
  (* Dedupe (reflections coincide with rotations for n <= 2). *)
  let tbl = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace tbl (perm_key p) p) surviving;
  let elems = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
  let gens = List.filter (fun p -> not (is_identity p)) elems in
  make ~what:"ring" g elems ~gens:(Array.of_list gens)

(* ------------------------------------------------------------------ *)
(* Equivariance check                                                  *)
(* ------------------------------------------------------------------ *)

(* In-views per node up to which {!verify} is exhaustive; beyond it,
   [inview_samples] deterministic in-views are checked instead. *)
let inview_budget = 1 lsl 16
let inview_samples = 1024

(* [card^k], or [None] once it exceeds [inview_budget]. *)
let views_count card k =
  let rec go acc k =
    if k = 0 then Some acc
    else if acc > inview_budget / card then None
    else go (acc * card) (k - 1)
  in
  go 1 k

(* A step applies each active node's reaction to its own in-view, so
   [step ∘ π = π ∘ step] on every labeling and activation set holds
   exactly when every node [i] and its image [π i] agree on corresponding
   in-views: [react (π i) (π·v)] must write [react i v]'s out-labels to
   the [σ]-images of [i]'s out-edges and produce the same output. Every
   in-view of [i] is realized by some labeling (in-edges are distinct
   edges), so checking all in-views is checking all labelings. *)
let verify p ~input t =
  if Protocol.num_nodes p <> t.n || Protocol.num_edges p <> t.m then
    invalid_arg "Symmetry.verify: protocol graph shape does not match group";
  let g = p.Protocol.graph in
  let space = p.Protocol.space in
  let card = space.Stateless_core.Label.card in
  let decode = space.Stateless_core.Label.decode
  and encode = space.Stateless_core.Label.encode in
  (* Position of edge [e] in its destination's in-edge list and in its
     source's out-edge list. *)
  let in_pos = Array.make t.m 0 and out_pos = Array.make t.m 0 in
  for i = 0 to t.n - 1 do
    Array.iteri (fun k e -> in_pos.(e) <- k) (Digraph.in_edges g i);
    Array.iteri (fun k e -> out_pos.(e) <- k) (Digraph.out_edges g i)
  done;
  (* Does node [i] agree with [np.(i)] on the in-view [codes]? *)
  let agrees np ep i codes =
    let j = np.(i) in
    let ins = Digraph.in_edges g i and outs = Digraph.out_edges g i in
    let view = Array.map decode codes in
    let pview = Array.copy view in
    Array.iteri (fun k e -> pview.(in_pos.(ep.(e))) <- view.(k)) ins;
    let out, y = p.Protocol.react i input.(i) view in
    let out', y' = p.Protocol.react j input.(j) pview in
    y = y'
    && Array.for_all2
         (fun e l -> encode l = encode out'.(out_pos.(ep.(e))))
         outs out
  in
  (* Every in-view of node [i], or a deterministic sample including the
     all-lowest and all-highest views; stops at the first disagreement. *)
  let node_agrees np ep i =
    let din = Digraph.in_degree g i in
    let codes = Array.make din 0 in
    let count, view =
      match views_count card din with
      | Some count ->
          ( count,
            fun v ->
              let rest = ref v in
              for k = din - 1 downto 0 do
                codes.(k) <- !rest mod card;
                rest := !rest / card
              done )
      | None ->
          ( inview_samples,
            fun s ->
              for k = 0 to din - 1 do
                let h = ((s * din) + k) * 0x9E3779B97F4A7C1 land max_int in
                codes.(k) <-
                  (if s = 0 then 0
                   else if s = 1 then card - 1
                   else (h lxor (h lsr 29)) mod card)
              done )
    in
    let rec go v = v >= count || (view v; agrees np ep i codes && go (v + 1)) in
    go 0
  in
  Array.for_all
    (fun np ->
      match edge_perm_of g np with
      | None -> false
      | Some ep ->
          let rec from i = i >= t.n || (node_agrees np ep i && from (i + 1)) in
          from 0)
    t.gens
