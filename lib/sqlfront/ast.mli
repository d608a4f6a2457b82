(** Abstract syntax of the toy SQL dialect (pre-binding: names, not
    node indices). *)

type scalar =
  | Col of string option * string  (** [alias.attr] or bare [attr] *)
  | Int of int
  | Str of string
  | Add of scalar * scalar
  | Sub of scalar * scalar
  | Mul of scalar * scalar

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type join_kind = Inner | Left_outer | Full_outer | Semi | Anti

type from_item = { table : string; alias : string }

type pred =
  | True
  | False
  | Cmp of cmp * scalar * scalar
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Exists of exists_query
      (** correlated [EXISTS (SELECT ... FROM t [WHERE p])]; unnested
          into a semijoin ([negated = false]) or antijoin by the
          binder *)

and exists_query = { negated : bool; item : from_item; inner_where : pred option }

(** FROM clause as written: the first item followed by joins; a comma
    acts as an inner join with no ON clause. *)
type join = { kind : join_kind; item : from_item; on : pred option }

type select_item = Star | Column of string option * string

type query = {
  select : select_item list;
  from_first : from_item;
  from_rest : join list;
  where : pred option;
}

val pp_query : Format.formatter -> query -> unit

val kind_str : join_kind -> string
(** "JOIN", "LEFT JOIN", ... — used in error messages. *)
