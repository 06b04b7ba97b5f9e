(** A typed catalogue of transient faults.

    Self-stabilization (Section 2.2) quantifies over {e arbitrary} transient
    corruption of the edge labels. Uniform random corruption exercises the
    average case; the other fault shapes model the structured failures a
    distributed system actually sees: a single machine scrambled
    ([Targeted]), the messages one node last sent corrupted in flight
    ([Messages]), and a node crashing and rejoining with a fixed junk
    labeling on its outputs ([Crash]). Every fault touches labels only —
    code and inputs stay intact, exactly the paper's fault model. *)

type t =
  | Uniform of { fraction : float }
      (** Each edge label is corrupted independently with probability
          [fraction] (to a label {e different} from the current one). *)
  | Targeted of { nodes : int list }
      (** Every edge incident to one of [nodes] (incoming or outgoing) gets
          a different label: the nodes' whole neighborhoods are scrambled. *)
  | Messages of { nodes : int list }
      (** Only the labels each listed node last wrote — its out-edges — are
          corrupted: message corruption in flight. *)
  | Crash of { nodes : int list; junk : int }
      (** Each listed node's out-labels are reset to the fixed label with
          code [junk]: crash-and-relabel. Deterministic. *)

(** Short human-readable fault descriptor, e.g. ["uniform:0.25"]. *)
val name : t -> string

(** [uniform_codes ~card ~seed ~fraction ~src ~dst] is the [Uniform]
    fault on label codes in [0 .. card - 1]: [dst.(e)] is [src.(e)], or
    with probability [fraction] a uniformly drawn different code. The
    random draws are exactly those {!apply} makes for [Uniform { fraction
    }] under [seed] on the labeling with codes [src] (a singleton space
    draws no code). [dst] may be [src].

    @raise Invalid_argument on an out-of-range fraction or when [src] and
    [dst] lengths differ. *)
val uniform_codes :
  card:int -> seed:int -> fraction:float -> src:int array -> dst:int array ->
  unit

(** [apply p ~seed fault config] returns a corrupted copy of [config]
    ([config] itself is untouched; outputs are carried over — the protocol
    re-derives them anyway). Random draws are deterministic in [seed].

    @raise Invalid_argument on an out-of-range fraction, node id or junk
    code, or an empty node list. *)
val apply :
  ('x, 'l) Protocol.t ->
  seed:int ->
  t ->
  'l Protocol.config ->
  'l Protocol.config
