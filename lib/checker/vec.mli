(** Growable arrays for the model checker's state tables.

    A [Vec.t] is an amortized-O(1)-append array with explicit capacity
    control: hot loops call {!reserve} once and then append through
    {!unsafe_push}, and read through {!unsafe_get}/{!unsafe_set}, skipping
    per-element bounds checks. The [dummy] element passed at creation fills
    unused capacity (it is never observable through the safe API). *)

type 'a t

(** [create ?capacity ~dummy ()] is an empty vector backed by [capacity]
    (default 16) preallocated slots.
    @raise Invalid_argument on negative capacity. *)
val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int

(** Append, growing the backing store geometrically when full. *)
val push : 'a t -> 'a -> unit

(** @raise Invalid_argument when the index is out of bounds. *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument when the index is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** Hot-loop accessors: bounds are the caller's responsibility. *)

val unsafe_get : 'a t -> int -> 'a
val unsafe_set : 'a t -> int -> 'a -> unit

(** [reserve t extra] grows the backing store so at least [extra] more
    pushes fit without reallocation, enabling {!unsafe_push} in bulk-append
    loops. *)
val reserve : 'a t -> int -> unit

(** Append without the capacity check; a prior {!reserve} must cover it. *)
val unsafe_push : 'a t -> 'a -> unit

(** A fresh array of the first [length t] elements. *)
val to_array : 'a t -> 'a array

(** Forget the contents but keep the allocated storage for reuse. *)
val clear : 'a t -> unit

(** [recycle t ~floor] is {!clear} for a vector reused across runs: when
    the storage exceeds [floor] slots and 8x the length it held, it is
    reallocated at [max floor (2 * length)] slots, so one oversized run
    does not pin its memory for every later one. *)
val recycle : 'a t -> floor:int -> unit

(** Allocated slots — for tests. *)
val capacity : 'a t -> int
