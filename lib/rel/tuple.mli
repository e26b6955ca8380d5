(** Tuples over a schema: integer arrays indexed by schema position. *)

type t = int array

val value : Schema.t -> t -> string -> int
(** Value of the named attribute. @raise Not_found if absent. *)

val project : Schema.t -> string list -> t -> t
(** Values of the named attributes, laid out for
    [Schema.restrict schema names] (schema order). Compiles a fresh
    {!Plan} per call; loops projecting many rows should compile the plan
    once with [Plan.restrict] and use [Plan.apply]. *)

val project_ordered : Schema.t -> string list -> t -> t
(** Values of the named attributes in the order of the name list itself
    — for comparing projections taken from schemas that order the same
    attributes differently. Per-row loops should prefer [Plan.ordered]
    + [Plan.apply]. *)

val validate : Schema.t -> t -> bool
(** Arity matches and every value is within its attribute's domain. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** The sign of [Stdlib.compare]: shorter tuples first, then
    lexicographic. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
