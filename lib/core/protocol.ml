module Digraph = Stateless_graph.Digraph

type ('x, 'l) t = {
  name : string;
  graph : Digraph.t;
  space : 'l Label.t;
  react : int -> 'x -> 'l array -> 'l array * int;
}

type 'l config = { labels : 'l array; outputs : int array }

let num_nodes p = Digraph.num_nodes p.graph
let num_edges p = Digraph.num_edges p.graph
let label_complexity p = Label.complexity p.space

let uniform_config p l =
  { labels = Array.make (num_edges p) l; outputs = Array.make (num_nodes p) 0 }

let config_of_labels p labels =
  if Array.length labels <> num_edges p then
    invalid_arg "Protocol.config_of_labels: wrong number of edge labels";
  { labels = Array.copy labels; outputs = Array.make (num_nodes p) 0 }

let decode_config p code =
  let m = num_edges p in
  let card = p.space.Label.card in
  let labels = Array.make m (p.space.Label.decode 0) in
  let rest = ref code in
  for e = m - 1 downto 0 do
    labels.(e) <- p.space.Label.decode (!rest mod card);
    rest := !rest / card
  done;
  { labels; outputs = Array.make (num_nodes p) 0 }

let encode_config p config =
  Array.fold_left
    (fun acc l -> (acc * p.space.Label.card) + p.space.Label.encode l)
    0 config.labels

(* Keys pack each encoded label into as few bytes as needed; with outputs
   excluded two configurations share a key iff their labelings coincide. *)
let config_key p config =
  let bytes_per_label = Label.code_bytes p.space in
  let m = Array.length config.labels in
  let buf = Bytes.create (m * bytes_per_label) in
  for e = 0 to m - 1 do
    let v = ref (p.space.Label.encode config.labels.(e)) in
    for k = 0 to bytes_per_label - 1 do
      Bytes.unsafe_set buf ((e * bytes_per_label) + k)
        (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8
    done
  done;
  Bytes.unsafe_to_string buf

let incoming p config i =
  Array.map (fun e -> config.labels.(e)) (Digraph.in_edges p.graph i)

let outgoing p config i =
  Array.map (fun e -> config.labels.(e)) (Digraph.out_edges p.graph i)

let apply p ~input config i = p.react i input.(i) (incoming p config i)

let is_stable p ~input config =
  let n = num_nodes p in
  let rec check i =
    if i >= n then true
    else
      let out, _ = apply p ~input config i in
      let edges = Digraph.out_edges p.graph i in
      let rec same k =
        if k >= Array.length edges then true
        else if
          p.space.Label.encode out.(k)
          = p.space.Label.encode config.labels.(edges.(k))
        then same (k + 1)
        else false
      in
      if same 0 then check (i + 1) else false
  in
  check 0

let labelings_count p =
  let card = p.space.Label.card in
  let m = num_edges p in
  let rec loop acc k =
    if k = 0 then Some acc
    else if acc > max_int / card then None
    else loop (acc * card) (k - 1)
  in
  loop 1 m

let with_name p name = { p with name }

let pp_config p ppf config =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun e l ->
      let i, j = Digraph.edge p.graph e in
      Format.fprintf ppf "%d->%d: %a@," i j p.space.Label.pp l)
    config.labels;
  Format.fprintf ppf "outputs: ";
  Array.iter (fun y -> Format.fprintf ppf "%d " y) config.outputs;
  Format.fprintf ppf "@]"
