(** Orbit canonicalization of checker states under a node-automorphism
    group, for the symmetry-quotient explorer.

    A state key is [lab_code * r^n + cd_code]: the labeling's mixed-radix
    code ({!Stateless_core.Protocol.encode_config}: edge 0 most
    significant, radix [card]) above the countdown code (node 0 most
    significant, radix [r], digit = countdown - 1). Group element [g]
    moves the label of edge [e] to edge [(Symmetry.edge_perms sy).(g).(e)]
    and the countdown of node [i] to node [(Symmetry.node_perms sy).(g).(i)];
    the canonical form of a key is the minimum key in its orbit.

    {!make} tabulates the action once per check: the key's digits are cut
    into chunks of at most 256 values, and a table maps each (chunk,
    value, element) to the place value those digits carry after
    permuting. An element's image key then costs one load and add per
    chunk — [⌈m/k⌉ + ⌈n/k'⌉] for [k] label and [k'] countdown digits per
    chunk — instead of [m + n] multiply-adds. *)

type t

(** [make sy ~card ~r] tabulates the action of [sy] on the keys of a
    protocol with [card] labels checked at fairness [r]. The table holds
    [|G|] words per chunk value. *)
val make : Symmetry.t -> card:int -> r:int -> t

val group : t -> Symmetry.t

(** Reused per-domain buffers; a scratch serves one domain at a time. *)
type scratch

val scratch : t -> scratch

(** [images t sc key] is the image key of [key] under every group element,
    by element index ([.(0)], the identity's, is [key]). The array is
    owned by [sc] and overwritten by the next call with [sc]. *)
val images : t -> scratch -> int -> int array

(** The minimum key of [key]'s orbit. *)
val canon : t -> scratch -> int -> int

(** [orbit_size t sc key] for a canonical [key]: the group order divided
    by the number of elements fixing [key]. *)
val orbit_size : t -> scratch -> int -> int

(** The index of the first element (in {!Symmetry.node_perms} order)
    mapping [key] onto its canonical form; [0] when [key] is canonical. *)
val to_canon : t -> scratch -> int -> int

(** [iter_initial t sc ~lab_count f] calls [f] on the canonical
    initialization states — all countdowns [r], labeling minimal in its
    orbit — in increasing key order. Each orbit's images are computed
    once. *)
val iter_initial : t -> scratch -> lab_count:int -> (int -> unit) -> unit
