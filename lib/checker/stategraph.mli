(** The states-graph back end shared by {!Checker} and the adversarial
    certifiers ([Netcheck], [Byzcheck]).

    Stabilization fails iff some reachable SCC of the states-graph holds a
    label-changing transition, or a node that emits two different outputs
    (Theorem 3.1). This module holds everything read off an explored
    graph — SCCs, intra-SCC paths, lassos, the output-conflict scan,
    witness replay on {!Stateless_core.Engine} and
    {!Stateless_core.Kernel} — plus one breadth-first explorer for the
    certifiers whose adversary is part of the transition relation. *)

(** {2 Shared arithmetic} *)

val ipow : int -> int -> int

(** Saturating multiply and power, for [Too_large] size estimates. *)
val mul_sat : int -> int -> int

val ipow_sat : int -> int -> int

(** Ascending node indices of the set bits of an [n]-bit mask. *)
val nodes_of_mask : int -> int -> int list

(** [validate ~who ~n ~r] rejects what no states-graph can be built for.
    @raise Invalid_argument ["<who>: too many nodes for subset enumeration"]
    when [n > 20], and ["<who>: r must be >= 1"] when [r < 1]. *)
val validate : who:string -> n:int -> r:int -> unit

(** {2 Explored graphs} *)

(** A states-graph explored breadth-first from its initialization
    vertices, which hold ids [0 .. labelings-1]. Edges are numbered by
    their flat index in [csr]. *)
type t = {
  n : int;  (** nodes; activation masks are [n]-bit *)
  react : int;
      (** mask of the nodes that run the protocol when activated (the
          others are adversarial) *)
  lab_div : int;  (** [key / lab_div] is a state's labeling code *)
  keys : int Vec.t;  (** id -> state key *)
  csr : Csr.t;  (** id -> (successor, mask, changed) edges *)
  parent : int Vec.t;  (** id -> the id that interned it, -1 at roots *)
  choice : int Vec.t;
      (** edge -> adversary choice code, -1 for none; empty for a graph
          without an adversary *)
}

val num_states : t -> int
val num_edges : t -> int

(** [mask g e] and [choice g e] read edge [e]. *)
val mask : t -> int -> int
val choice : t -> int -> int

(** [scc g] numbers the strongly connected components (iterative
    Tarjan, roots in id order). The array is per-domain scratch, valid
    until the next call on the same domain; read only ids below
    [num_states g]. *)
val scc : t -> int array

(** A lasso: from the labeling [init_code] (with full countdowns) take
    the [prefix] edges, then repeat the [cycle] edges forever. *)
type lasso = { init_code : int; prefix : int list; cycle : int list }

(** The first label-changing intra-SCC edge (in id, then edge order),
    closed into a cycle; [None] when the graph label-stabilizes. *)
val label_lasso : t -> int array -> lasso option

(** Two intra-SCC edges on which one node emits distinct outputs. *)
type conflict

(** [output_conflicts g comp cache ~stop_at_first] maps each reacting
    node to the first output conflict found for it, scanning intra-SCC
    edges in id, then edge order and reading outputs off [cache].
    [stop_at_first] ends the scan after the edge where the first
    conflict appears. *)
val output_conflicts :
  t ->
  int array ->
  ('x, 'l) Trans_cache.t ->
  stop_at_first:bool ->
  (int, conflict) Hashtbl.t

(** The cycle [src0 -e0-> ~~> src1 -e1-> ~~> src0] through a conflict. *)
val conflict_lasso : t -> int array -> conflict -> lasso

(** The lasso through the first output conflict at any node; [None] when
    the graph output-stabilizes. *)
val output_lasso : t -> int array -> ('x, 'l) Trans_cache.t -> lasso option

(** {2 The adversarial explorer} *)

(** An adversary acting between protocol steps. A state is keyed
    [(lab * r^n + cd) * phases + adv]: labeling, countdown vector and the
    adversary's own state [adv < phases]. *)
type adversary = {
  phases : int;  (** adversary states *)
  init : int;  (** adversary state at every initialization vertex *)
  react : int;  (** mask of the nodes that run the protocol *)
  branch : int;
      (** worst fan-out per activation; the size estimate is states times
          [branch] *)
  successors :
    mask:int -> adv:int -> lab:int -> (int -> int -> int -> unit) -> unit;
      (** [successors ~mask ~adv ~lab emit]: after activation set [mask]
          took the reacting nodes to labeling [lab], call [emit lab' adv'
          choice] once per adversary move, in edge order ([choice] is
          recorded on the edge, -1 for none) *)
}

(** [explore p ~input ~r ~max_states adv] explores breadth-first from
    every labeling with full countdowns, interning states in discovery
    order. [Error needed] when the size estimate exceeds [max_states].
    Validate [n] and [r] first ({!validate}). *)
val explore :
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  r:int ->
  max_states:int ->
  adversary ->
  (t * ('x, 'l) Trans_cache.t, int) result

(** {2 Witness replay} *)

(** One witness step: the [react] nodes run the protocol, then each
    [(edge, code)] write lands. *)
type step = { react : int list; writes : (int * int) list }

(** [replay p ~input ~init_code ~prefix ~cycle] plays [prefix] from the
    decoded labeling, then checks on {!Stateless_core.Engine} that
    [cycle] returns to its starting labeling while the reacting nodes
    change a label (before the step's writes) or one of them emits two
    distinct outputs. *)
val replay :
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  init_code:int ->
  prefix:step list ->
  cycle:step list ->
  bool

(** {!replay} through {!Stateless_core.Kernel} on packed label codes. *)
val replay_packed :
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  init_code:int ->
  prefix:step list ->
  cycle:step list ->
  bool
