(** Finite label spaces Σ (Section 2.1).

    A label space is a finite set with an explicit bijection to
    [0 .. card - 1]. The bijection serves three purposes: it defines the
    paper's label complexity [L_n = log2 |Σ|] (Section 2.3), it lets the
    model checker enumerate every labeling in [Σ^E], and it gives compact
    hash keys for oscillation detection. *)

type 'a t = {
  card : int;  (** |Σ|; must be positive. *)
  encode : 'a -> int;  (** injective into [0 .. card-1]. *)
  decode : int -> 'a;  (** left inverse of [encode]. *)
  pp : Format.formatter -> 'a -> unit;
}

(** The paper's label complexity [L_n = log2 |Σ|], in bits. *)
val complexity : 'a t -> float

(** Number of bits needed to write a label, [ceil (log2 card)]. *)
val bit_length : 'a t -> int

(** Bytes per code in a labeling key ({!Protocol.config_key}): 1, 2, 4 or
    8, the fewest that hold every code in [0 .. card - 1]. *)
val code_bytes : 'a t -> int

(** Σ = \{false, true\}, the 1-bit space of Example 1 and Theorem 4.1. *)
val bool : bool t

(** [int n] is Σ = \{0, ..., n-1\}, e.g. the [q]-value space of
    Lemma C.2's extremal protocol. *)
val int : int -> int t

(** [pair a b] is the product space with lexicographic encoding. *)
val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [vector a k] is the [k]-fold power of [a], encoded mixed-radix.
    Arrays must have length exactly [k]. *)
val vector : 'a t -> int -> 'a array t

(** [bool_vector k] is \{0,1\}^k — the label space of Proposition 2.3's
    generic protocol (with [k = n + 1]). *)
val bool_vector : int -> bool array t

(** [enum values ~pp ~equal] builds a space from an explicit value list.
    Encoding is the list position; [decode] is O(1) via an array. *)
val enum : 'a list -> pp:(Format.formatter -> 'a -> unit) ->
  equal:('a -> 'a -> bool) -> 'a t

(** [option a] adjoins a distinguished extra value ([None], encoded 0) —
    e.g. the ω label of the metanode construction in Theorem B.14. *)
val option : 'a t -> 'a option t

(** [iso ~fwd ~bwd ~pp a] transports a space along a bijection. *)
val iso : fwd:('a -> 'b) -> bwd:('b -> 'a) ->
  pp:(Format.formatter -> 'b -> unit) -> 'a t -> 'b t

(** [check_roundtrip t] verifies [encode (decode i) = i] for all
    [i < card]; used by property tests. *)
val check_roundtrip : 'a t -> bool
