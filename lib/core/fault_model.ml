module Digraph = Stateless_graph.Digraph

type t =
  | Uniform of { fraction : float }
  | Targeted of { nodes : int list }
  | Messages of { nodes : int list }
  | Crash of { nodes : int list; junk : int }

let name = function
  | Uniform { fraction } -> Printf.sprintf "uniform:%g" fraction
  | Targeted { nodes } ->
      Printf.sprintf "targeted:%s"
        (String.concat "," (List.map string_of_int nodes))
  | Messages { nodes } ->
      Printf.sprintf "messages:%s"
        (String.concat "," (List.map string_of_int nodes))
  | Crash { nodes; junk } ->
      Printf.sprintf "crash:%s->%d"
        (String.concat "," (List.map string_of_int nodes))
        junk

(* A corrupted label must differ from the old one, else the effective
   corruption rate silently drops below the requested one. Drawing from the
   [card - 1] other codes and shifting past the old code is the loop-free
   equivalent of resampling until the label differs. Degenerate singleton
   spaces have nothing to corrupt to, and draw nothing. *)
let redraw_code ~card state old =
  if card <= 1 then old
  else begin
    let c = Random.State.int state (card - 1) in
    if c >= old then c + 1 else c
  end

let redraw space state old =
  let card = space.Label.card in
  if card <= 1 then old
  else space.Label.decode (redraw_code ~card state (space.Label.encode old))

let uniform_codes ~card ~seed ~fraction ~src ~dst =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Fault_model.uniform_codes: fraction must be in [0, 1]";
  if Array.length dst <> Array.length src then
    invalid_arg "Fault_model.uniform_codes: src and dst lengths differ";
  let state = Random.State.make [| seed |] in
  for e = 0 to Array.length src - 1 do
    let old = src.(e) in
    dst.(e) <-
      (if Random.State.float state 1.0 < fraction then
         redraw_code ~card state old
       else old)
  done

let check_nodes p ctx nodes =
  let n = Protocol.num_nodes p in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Fault_model.apply: %s: node %d" ctx i))
    nodes;
  match List.sort_uniq compare nodes with
  | [] -> invalid_arg (Printf.sprintf "Fault_model.apply: %s: no nodes" ctx)
  | nodes -> nodes

(* Distinct nodes of a [Targeted] fault can share incident edges; corrupt
   each edge once so a double redraw cannot restore the original label. *)
let incident_edges g nodes =
  List.sort_uniq compare
    (List.concat_map
       (fun i ->
         Array.to_list (Digraph.out_edges g i)
         @ Array.to_list (Digraph.in_edges g i))
       nodes)

let apply p ~seed fault config =
  let space = p.Protocol.space in
  let labels = Array.copy config.Protocol.labels in
  let redraw_all edges =
    let state = Random.State.make [| seed |] in
    List.iter (fun e -> labels.(e) <- redraw space state labels.(e)) edges
  in
  (match fault with
  | Uniform { fraction } ->
      if fraction < 0.0 || fraction > 1.0 then
        invalid_arg "Fault_model.apply: fraction must be in [0, 1]";
      let codes = Array.map space.Label.encode labels in
      let dst = Array.make (Array.length codes) 0 in
      uniform_codes ~card:space.Label.card ~seed ~fraction ~src:codes ~dst;
      Array.iteri
        (fun e c -> if c <> codes.(e) then labels.(e) <- space.Label.decode c)
        dst
  | Targeted { nodes } ->
      let nodes = check_nodes p "Targeted" nodes in
      redraw_all (incident_edges p.Protocol.graph nodes)
  | Messages { nodes } ->
      let nodes = check_nodes p "Messages" nodes in
      redraw_all
        (List.concat_map
           (fun i -> Array.to_list (Digraph.out_edges p.Protocol.graph i))
           nodes)
  | Crash { nodes; junk } ->
      if junk < 0 || junk >= space.Label.card then
        invalid_arg "Fault_model.apply: junk label code out of range";
      let nodes = check_nodes p "Crash" nodes in
      let j = space.Label.decode junk in
      List.iter
        (fun i ->
          Array.iter
            (fun e -> labels.(e) <- j)
            (Digraph.out_edges p.Protocol.graph i))
        nodes);
  { Protocol.labels; outputs = Array.copy config.Protocol.outputs }
