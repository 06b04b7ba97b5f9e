(** Compressed-sparse-row storage for the states-graph.

    All edges live in a single flat int buffer: edge [k] of state [id] is
    the packed word

    {v cells.(offsets.(id) + k) = (succ << (n+1)) | (mask << 1) | changed v}

    where [succ] is the successor state id, [mask] the activation set and
    [changed] the label-changed bit. [offsets] delimits each state's slice.
    Rows must be appended in state-id order — push the edges of state 0,
    {!end_row}, push the edges of state 1, {!end_row}, ... — which the
    explorer's breadth-first interning guarantees. Tarjan, the witness BFS
    and the output-conflict scan read the buffer directly through the
    unsafe accessors. *)

type t

(** [create ~n ?capacity ()] for a protocol on [n] nodes; [capacity]
    (default 16) preallocates that many rows and [4 * capacity] edges.
    @raise Invalid_argument unless [1 <= n <= 20] (the packing needs
    [n + 1] low bits per word). *)
val create : n:int -> ?capacity:int -> unit -> t

(** [reset t ~n] forgets all rows and re-packs the words for a protocol on
    [n] nodes, so one [t] can serve explorations of any size in turn (the
    checker keeps one per domain). Reuse contract: the row and edge
    buffers are kept, except that a buffer larger than its floor (2^16
    rows, 2^19 edges) and more than 8x what the previous graph used is
    reallocated at the larger of its floor and twice that use — one huge
    exploration does not pin its memory for every later small one.
    @raise Invalid_argument unless [1 <= n <= 20]. *)
val reset : t -> n:int -> unit

(** Allocated edge slots — for tests. *)
val edge_capacity : t -> int

(** Number of sealed rows (states). *)
val rows : t -> int

(** Total edges pushed so far. *)
val num_edges : t -> int

(** Append one edge to the row currently being built.
    @raise Invalid_argument when [succ] exceeds {!max_succ}. *)
val push_edge : t -> succ:int -> mask:int -> changed:int -> unit

(** Largest successor id the word packing can hold; callers that bound
    their ids once up front may then use {!unsafe_push_edge}. *)
val max_succ : t -> int

(** [reserve_edges t extra] makes room for [extra] more edges, enabling
    {!unsafe_push_edge}. *)
val reserve_edges : t -> int -> unit

(** {!push_edge} without the overflow check or capacity growth: the caller
    has checked ids against {!max_succ} and reserved space. *)
val unsafe_push_edge : t -> succ:int -> mask:int -> changed:int -> unit

(** Seal the current row: all edges pushed since the previous [end_row]
    belong to state [rows t]. *)
val end_row : t -> unit

(** Out-degree of a sealed row. Unchecked. *)
val degree : t -> int -> int

(** {2 Word-level access for hot loops}

    Fetch a row's packed words once and unpack the fields locally instead
    of re-reading per field. All unchecked. *)

(** Index into the flat cell buffer where row [id] starts. *)
val row_start : t -> int -> int

(** The packed word at flat index [j] (as returned by {!row_start}). *)
val cell : t -> int -> int

val succ_of_word : t -> int -> int
val mask_of_word : t -> int -> int
val changed_of_word : int -> int

(** {2 Per-edge accessors} — [word t id k] is edge [k] of state [id]. *)

val word : t -> int -> int -> int
val succ : t -> int -> int -> int
val mask : t -> int -> int -> int
val changed : t -> int -> int -> int
