(** Queries as seen by the vertical partitioning problem.

    Following the paper's unified setting (Section 4), a query is reduced to
    its scan/projection footprint on one table: the set of attributes it
    references, plus a weight (execution frequency). Selection predicates,
    joins across tables and other operators are intentionally out of scope —
    the cost model charges only for the I/O needed to read the referenced
    attributes. *)

type t = private {
  name : string;
  references : Attr_set.t;  (** Attribute positions the query touches. *)
  weight : float;  (** Relative frequency; must be positive and finite. *)
}

val make : ?weight:float -> name:string -> references:Attr_set.t -> unit -> t
(** [weight] defaults to [1.0].
    @raise Invalid_argument if [references] is empty, [weight] is NaN or
    infinite, or [weight <= 0]. *)

val name : t -> string

val references : t -> Attr_set.t

val weight : t -> float

val references_attr : t -> int -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
