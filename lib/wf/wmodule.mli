(** Workflow modules (Section 2.1): a module [m] with input attributes
    [I] and output attributes [O] is a finite relation over [I union O]
    satisfying the functional dependency [I -> O], i.e. a (possibly
    partial) function from assignments of [I] to assignments of [O]. *)

type t = private {
  name : string;
  inputs : Rel.Attr.t list;
  outputs : Rel.Attr.t list;
  table : Rel.Relation.t;  (** schema is [inputs @ outputs] *)
}

val of_table :
  name:string -> inputs:Rel.Attr.t list -> outputs:Rel.Attr.t list -> Rel.Relation.t -> t
(** @raise Invalid_argument if input/output names overlap, the relation's
    schema is not [inputs @ outputs], or the FD [I -> O] fails. *)

val of_checked :
  name:string -> inputs:Rel.Attr.t list -> outputs:Rel.Attr.t list -> Rel.Relation.t -> t
(** {!of_table} for a caller that has already proven what it checks
    (distinct names, schema [inputs @ outputs], the FD), as
    {!Parse.spec_of_raw} does on ids; no check. *)

val of_fun :
  name:string ->
  inputs:Rel.Attr.t list ->
  outputs:Rel.Attr.t list ->
  (int array -> int array) ->
  t
(** Materialize a total function by enumerating the full input domain.
    @raise Invalid_argument if the function returns malformed outputs. *)

val of_partial_fun :
  name:string ->
  inputs:Rel.Attr.t list ->
  outputs:Rel.Attr.t list ->
  defined_on:int array list ->
  (int array -> int array) ->
  t
(** Like {!of_fun} but only on the listed input tuples — a module whose
    relation records just the executions that have been run. *)

val apply : t -> int array -> int array option
(** Output tuple for the given input tuple, if defined. *)

val input_names : t -> string list
val output_names : t -> string list
val attr_names : t -> string list
val arity : t -> int
(** Total number of attributes ([k] in the paper's complexity bounds). *)

val input_schema : t -> Rel.Schema.t
val output_schema : t -> Rel.Schema.t

val defined_inputs : t -> int array list
(** The input tuples on which the module is defined, i.e. [pi_I(R)]. *)

val is_one_one : t -> bool
(** Injective on its defined inputs. *)

val is_constant : t -> bool
(** All defined inputs map to the same output. *)

val rename : t -> string -> t
(** Same functionality under a different module name (privatization
    renames modules; attribute names are left untouched). *)

val pp : Format.formatter -> t -> unit
