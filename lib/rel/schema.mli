(** Ordered attribute lists. Tuples are integer arrays indexed by schema
    position, so a schema fixes both the meaning and the layout of every
    tuple of a relation. *)

type t

val of_list : Attr.t list -> t
(** @raise Invalid_argument on duplicate attribute names. *)

val of_distinct : Attr.t list -> t
(** {!of_list} for a caller that has already proven the names distinct
    (a workflow that interned them); no check, no sort. *)

val attrs : t -> Attr.t list
val names : t -> string list
val size : t -> int
val attr : t -> int -> Attr.t

val index_of : t -> string -> int
(** @raise Not_found if the attribute is absent. *)

val mem : t -> string -> bool
val find : t -> string -> Attr.t option

val restrict : t -> string list -> t
(** Sub-schema containing exactly the named attributes, in the order of
    the original schema (not of the name list).
    @raise Not_found if a name is absent. *)

val equal : t -> t -> bool

val domain_size : t -> int
(** Product of attribute domain sizes (the number of possible tuples).
    @raise Failure on overflow past 2^40, a guard for brute-force
    enumeration callers. *)

val all_tuples : t -> int array list
(** Every possible tuple, in lexicographic order. Guarded by
    {!domain_size}. *)

val pp : Format.formatter -> t -> unit
