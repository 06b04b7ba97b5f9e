(** Stateless protocols A = (Σ, δ) — Section 2.1 of the paper.

    A protocol fixes a strongly connected directed graph, a finite label
    space Σ, and one deterministic reaction function per node

    {v δ_i : Σ^{-i} × X → Σ^{+i} × Y v}

    mapping the labels on [i]'s incoming edges and [i]'s private input to new
    labels on [i]'s outgoing edges and an output value. Nodes have no other
    state: everything a node ever does is determined by its current incoming
    labels and its input.

    Inputs are polymorphic ['x] (the paper's X, usually bits) and outputs are
    [int] (the paper's \{0,1\}, generalized so that strategies and routing
    choices can be reported as outputs too). *)

type ('x, 'l) t = {
  name : string;
  graph : Stateless_graph.Digraph.t;
  space : 'l Label.t;  (** Σ. *)
  react : int -> 'x -> 'l array -> 'l array * int;
      (** [react i x_i incoming] receives the labels of [i]'s incoming edges,
          in the order of [Digraph.in_edges graph i], and returns the labels
          for [i]'s outgoing edges, in the order of
          [Digraph.out_edges graph i], together with [i]'s output value. *)
}

(** A configuration: one label per edge (indexed by edge id) plus the last
    output written by each node. *)
type 'l config = { labels : 'l array; outputs : int array }

val num_nodes : ('x, 'l) t -> int
val num_edges : ('x, 'l) t -> int

(** The paper's label complexity [L_n = log2 |Σ|]. *)
val label_complexity : ('x, 'l) t -> float

(** [uniform_config p l] is the configuration with every edge labeled [l]
    and all outputs 0. *)
val uniform_config : ('x, 'l) t -> 'l -> 'l config

(** [config_of_labels p labels] wraps an edge-indexed label array (copied)
    with zero outputs.
    @raise Invalid_argument on a length mismatch. *)
val config_of_labels : ('x, 'l) t -> 'l array -> 'l config

(** [decode_config p code] decodes a mixed-radix integer into a labeling
    (edge 0 is the most significant digit). Only usable when
    [|Σ|^|E|] fits in an [int]. *)
val decode_config : ('x, 'l) t -> int -> 'l config

(** [encode_config p config] is the inverse of {!decode_config} (outputs are
    not encoded). *)
val encode_config : ('x, 'l) t -> 'l config -> int

(** [config_key p config] is a compact hashable key for the labeling part of
    a configuration (outputs excluded, matching the paper's notion of label
    convergence). Each code takes {!Label.code_bytes} bytes, so two
    configurations share a key iff their labelings coincide. *)
val config_key : ('x, 'l) t -> 'l config -> string

(** [apply p ~input config i] evaluates node [i]'s reaction function against
    [config], returning its fresh outgoing labels and output. *)
val apply : ('x, 'l) t -> input:'x array -> 'l config -> int -> 'l array * int

(** [incoming p config i] extracts the labels of [i]'s incoming edges. *)
val incoming : ('x, 'l) t -> 'l config -> int -> 'l array

(** [outgoing p config i] extracts the labels of [i]'s outgoing edges. *)
val outgoing : ('x, 'l) t -> 'l config -> int -> 'l array

(** [is_stable p ~input config] holds when the labeling is a stable labeling
    (Section 3): a fixed point of every reaction function. *)
val is_stable : ('x, 'l) t -> input:'x array -> 'l config -> bool

(** [labelings_count p] is [|Σ|^|E|] if it fits in an [int], else [None].
    This is the configuration-count bound of Proposition 2.2. *)
val labelings_count : ('x, 'l) t -> int option

(** [with_name p name]. *)
val with_name : ('x, 'l) t -> string -> ('x, 'l) t

(** [pp_config p ppf config] prints the labeling edge by edge. *)
val pp_config : ('x, 'l) t -> Format.formatter -> 'l config -> unit
