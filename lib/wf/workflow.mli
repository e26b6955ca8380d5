(** Workflows (Section 2.3): modules connected in a DAG, jointly mapping
    initial inputs to final outputs. The provenance relation [R] over all
    attributes, whose tuples are workflow executions, is the input-output
    join of the module relations. *)

type t = private {
  modules : Wmodule.t array;  (** topologically sorted *)
  schema : Rel.Schema.t;  (** all attributes: initial inputs then outputs *)
  initial : Rel.Attr.t list;  (** attributes produced by no module *)
  names : string array;
      (** attribute id -> name; an attribute's id is its schema position *)
  ins : int array array;  (** module index -> input attribute ids *)
  outs : int array array;  (** module index -> output attribute ids *)
}

val create : Wmodule.t list -> (t, string) result
(** Validates the workflow: distinct module names; per-module disjoint
    input/output names; pairwise-disjoint output sets (each data item has
    a unique producer); domain-consistent shared attribute names;
    acyclicity. Modules are re-ordered topologically. One table numbers
    the attribute names; everything after works on the ids. *)

val of_interned :
  Wmodule.t array ->
  n_attrs:int ->
  attr:(int -> Rel.Attr.t) ->
  ins:int array array ->
  outs:int array array ->
  (t * int array * int array, string) result
(** {!create} for modules whose attributes the caller has numbered
    already, as {!Parse.spec_of_raw} does: [ins.(i)] and [outs.(i)] are
    module [i]'s attribute ids in [0, n_attrs), and [attr id] the
    attribute an id stands for (asked only of ids some module uses). The caller vouches for what its numbering proves
    (distinct module names, one domain per attribute, disjoint sides);
    unique producers and acyclicity are checked here, with {!create}'s
    messages. Returns the workflow, the schema position of each caller
    id (-1 when no module uses it) and, per workflow module, the
    caller's index of it. *)

val create_exn : Wmodule.t list -> t
(** @raise Invalid_argument with the validation error. *)

val modules : t -> Wmodule.t list
val find_module : t -> string -> Wmodule.t option
val module_names : t -> string list
val attr_names : t -> string list
val initial_names : t -> string list

val final_names : t -> string list
(** Outputs consumed by no module. *)

val intermediate_names : t -> string list
(** Outputs consumed by at least one module. *)

val producer : t -> string -> string option
(** Name of the module producing the attribute, if any. *)

val consumers : t -> string -> string list
(** Names of the modules consuming the attribute. *)

val data_sharing_degree : t -> int
(** The workflow's gamma (Definition 3): the largest number of modules
    any single attribute feeds. *)

val run : t -> int array -> int array option
(** Execute on an assignment of the initial attributes (in [initial]
    order); [None] if some module is undefined on its input. *)

val runner : t -> int array -> int array option
(** Compiled form of {!run}: resolves every attribute-name lookup and
    hash-indexes the module tables once, returning a closure that
    executes one initial assignment in O(total arity). Use it when
    running many inputs (the possible-world enumerators do). *)

val relation : ?initial_tuples:int array list -> t -> Rel.Relation.t
(** The provenance relation [R]. By default every assignment of the
    initial attributes is executed; executions on which some partial
    module is undefined are dropped. *)

val with_modules : t -> Wmodule.t list -> t
(** Same topology with substituted module functionality (used by the
    possible-world enumerators). The substitutes must agree with the
    originals on names and attribute sets.
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
