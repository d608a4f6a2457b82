(** A join candidate in flight through the DP core: its two operands,
    its combined selectivity and, once priced, its output cardinality
    and total cost.

    All fields are floats, so OCaml stores the record flat and reads
    and writes of its fields never allocate.  Float arguments and
    results that cross a module boundary are boxed, one small
    allocation each; the DP core prices millions of candidates per
    query, so it hands them between modules in one of these instead.
    Each emission context owns one and reuses it for every candidate. *)

type t = {
  mutable left_card : float;
  mutable left_cost : float;
  mutable right_card : float;
  mutable right_cost : float;
  mutable sel : float;  (** combined selectivity of the applied predicates *)
  mutable card : float;  (** output cardinality, set by pricing *)
  mutable cost : float;  (** total cost including both operands, set by pricing *)
}

val create : unit -> t
