(** Node-automorphism groups for symmetry-reduced exploration.

    A group element is a node permutation [π] that is a graph automorphism;
    it induces an edge permutation [σ] ([σ(e)] is the edge from [π(src e)]
    to [π(dst e)]). When the protocol is equivariant under the group — every
    node runs the same reaction, inputs are constant along orbits — the
    group acts on checker states [(ℓ, x)] by relabeling positions, and the
    states-graph is invariant under that action. The explorer can then
    intern one canonical representative per orbit and explore the quotient,
    shrinking the reachable graph by up to the group order (n! on cliques,
    2n on rings) while preserving the stabilization verdict; see DESIGN.md
    for the soundness argument.

    Groups are closed under composition and contain the identity (element
    [0] of {!node_perms}); the constructors guarantee this. *)

type t

(** Number of group elements (identity included). *)
val order : t -> int

val num_nodes : t -> int
val num_edges : t -> int

(** [node_perms t] — element [g] maps node [i] to [(node_perms t).(g).(i)].
    Element [0] is the identity. Owned by [t]; callers must not mutate. *)
val node_perms : t -> int array array

(** [edge_perms t] — the edge permutation induced by each element, same
    indexing as {!node_perms}. Owned by [t]; callers must not mutate. *)
val edge_perms : t -> int array array

(** A generating set of node permutations (identity excluded; the whole
    group when no smaller set is known). {!verify} checks only generators:
    equivariance is closed under composition, so generator equivariance
    implies equivariance of every element. *)
val generators : t -> int array array

(** The full symmetric group S_n acting on a clique. Rejects graphs that
    are not cliques and [n > 8] (the group has [n!] elements).
    @raise Invalid_argument accordingly. *)
val clique : Stateless_graph.Digraph.t -> t

(** The dihedral candidates (n rotations, n reflections) filtered to the
    automorphisms of the given graph — all [2n] on a bidirectional ring,
    the [n] rotations on a unidirectional ring. The result is a group
    because it is the intersection of two groups.
    @raise Invalid_argument when no rotation except the identity survives
    (the graph is not a ring in the expected node numbering). *)
val ring : Stateless_graph.Digraph.t -> t

(** [of_node_perms g perms] builds a group from explicit node permutations:
    validates each is an automorphism of [g], adds the identity, dedupes,
    and checks closure under composition.
    @raise Invalid_argument on non-permutations, non-automorphisms, or a
    set that is not closed. *)
val of_node_perms : Stateless_graph.Digraph.t -> int array list -> t

(** [verify p ~input t] checks protocol equivariance under the group's
    {!generators}, node by node: for every generator [π], node [i] and
    in-view [v] of [i] (an assignment of labels to [i]'s in-edges),
    [react (π i) (π·v)] must write [react i v]'s out-labels onto the
    images of [i]'s out-edges and produce the same output. A global step
    applies each active node's reaction to its own in-view, so this holds
    exactly when stepping then permuting equals permuting then stepping
    with the permuted activation set, for every labeling and activation
    set.

    The check is exhaustive — [true] proves equivariance — when every node
    has at most 65536 in-views ([card^in_degree <= 2^16]). A node with
    more in-views is checked on 1024 deterministic samples (including the
    all-lowest and all-highest views), and [true] is then sampled
    evidence. A [false] result always proves the protocol is not
    equivariant.
    @raise Invalid_argument when the graph shape does not match [t]. *)
val verify : ('x, 'l) Stateless_core.Protocol.t -> input:'x array -> t -> bool
