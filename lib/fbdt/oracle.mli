(** A single-output query oracle over a {e virtual} input space.

    The FBDT learner is generic over what an "input" is: for a plain output
    it is the black-box's primary inputs; after comparator-based input
    compression some virtual inputs are {e delegates} standing for whole
    bus pairs. The learner only needs to ask "what is the output under this
    virtual assignment?", batched, and "is the budget spent?".

    The learner itself runs on the word-major {!Words.t}; {!t} is the
    assignment-vector form, adapted onto it by {!to_words}. *)

type t = {
  arity : int;  (** number of virtual inputs *)
  query : Lr_bitvec.Bv.t array -> bool array;
      (** batched: one [arity]-bit virtual assignment per element *)
  exhausted : unit -> bool;  (** the TimeLimit test of Algorithm 2 *)
}

module Words : sig
  type t = {
    arity : int;  (** number of virtual inputs *)
    query : n:int -> int64 array array -> int64 array;
        (** one batch of [n] virtual assignments in [ceil(n / 64)] word
            blocks: block [b] holds [arity] words, bit [k] of word [i]
            being input [i] of assignment [64b + k]. Answers one output
            word per block, lane [k] for assignment [64b + k]; lanes at
            or past [n] are unspecified. *)
    exhausted : unit -> bool;  (** the TimeLimit test of Algorithm 2 *)
  }
end

val to_words : t -> Words.t
(** Each word batch becomes one [query] call on its transposed
    assignments, so batch boundaries are kept. *)

val of_words : Words.t -> t
(** The inverse adapter, for callers holding assignment vectors. *)

val of_fun : arity:int -> (Lr_bitvec.Bv.t -> bool) -> t
(** Convenience constructor with no budget (never exhausted). *)
