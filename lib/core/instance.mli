(** Secure-View problem instances (Sections 4.2 and 5.2).

    An instance records the attributes with their hiding costs, one
    requirement list per private module, and — for general workflows —
    the public modules with their privatization costs and adjacent
    attributes. All-private workflows simply have an empty public list.

    Attributes are numbered once, when the instance is built: ids
    [0 .. n-1] follow the order of [attr_costs] (for {!of_workflow},
    the workflow schema). Modules and publics hold id arrays and
    id-level requirement options, and every solver reads those. Names
    live in one table, used for error strings and rendering. Where the
    answer depends on an order of attributes, the order is the one of
    their names: the [rank] field gives each id its name's rank, computed
    with one sort, so id-level code sorts and compares by name without
    touching a string. *)

(** {1 Name-level descriptions}

    What {!make} takes, and what the views below return. *)

type module_req = {
  m_name : string;
  inputs : string list;
  outputs : string list;
  req : Requirement.t;
}

type public_mod = { p_name : string; p_cost : Rat.t; p_attrs : string list }

(** {1 The id-level instance} *)

type req =
  | Card of Requirement.cardinality
  | Sets of (int array * int array) array
      (** options as attribute ids, each side in the order its names
          were given *)

type pmod = {
  mname : string;
  ins : int array;
  outs : int array;
  ireq : req;
}
(** A private module. *)

type pub = { pname : string; pcost : Rat.t; pattrs : int array }
(** A public module. *)

type t = private {
  names : string array;  (** attribute id -> name *)
  costs : Rat.t array;  (** attribute id -> hiding cost *)
  rank : int array;  (** attribute id -> rank of its name, by [String.compare] *)
  by_rank : int array;  (** rank -> attribute id *)
  pmods : pmod array;  (** private modules *)
  pubs : pub array;  (** public modules *)
  set_form : bool;  (** every requirement is in {!to_sets}'s normal form *)
}

val make :
  attr_costs:(string * Rat.t) list ->
  mods:module_req list ->
  ?publics:public_mod list ->
  unit ->
  t
(** Intern the names once and build the instance.
    @raise Invalid_argument if a module, set option or public references
    an unknown attribute, costs are negative, or names collide. *)

val of_ids :
  names:string array ->
  costs:Rat.t array ->
  pubs:pub array ->
  (rank:int array -> pmod array) ->
  t
(** Build from ids already assigned: [names] must be distinct and every
    id in range, as an elaborated spec guarantees. The private modules
    are built last, from the name ranks. Only the costs are checked.
    @raise Invalid_argument on a negative cost. *)

val req_of_derived : rank:int array -> ins:int array -> outs:int array -> Derive.derived -> req
(** A derived requirement over the module's attribute ids, with the
    sides ordered as {!Derive.requirement} orders names: the input half
    by name, the output half as declared. *)

val of_workflow :
  Wf.Workflow.t ->
  gamma:int ->
  ?gamma_overrides:(string * int) list ->
  cost:(string -> Rat.t) ->
  ?publics:(string * Rat.t) list ->
  unit ->
  t
(** Derive requirement lists from the module tables via {!Derive} for
    every module not listed in [publics]; public modules contribute
    privatization costs instead. [gamma_overrides] assigns individual
    privacy requirements to named modules (the paper's remark after
    Definition 5: different modules may have different [Gamma_i]). *)

(** {1 Names} *)

val n_attrs : t -> int
val attrs : t -> string list
(** Names in id order. *)

val find : t -> string -> int option
(** The id of a name: a binary search over the name ranks. *)

val attr_cost : t -> string -> Rat.t

val attr_costs : t -> (string * Rat.t) list
val mods : t -> module_req list
val publics : t -> public_mod list
(** Name-level views, in instance order: [make] of the three gives an
    equal instance. *)

val lmax : t -> int
(** Longest requirement list over the modules ([l_max]). *)

val n_modules : t -> int

(** {1 Hidden sets as masks}

    A mask has one slot per attribute id. *)

val satisfied : pmod -> bool array -> bool
(** Does the hidden mask satisfy some entry of the module's list? *)

val all_satisfied : t -> bool array -> bool

val exposed : pub -> bool array -> bool
(** A public module with a hidden adjacent attribute. *)

val mask_cost : t -> bool array -> Rat.t
(** Hiding cost of the mask plus the privatization cost of the publics
    it exposes. *)

(** {1 Name-level queries} *)

val required_privatizations : t -> hidden:string list -> string list
(** Public modules with a hidden adjacent attribute — they must be
    privatized for the solution to be safe (Theorem 8). *)

val feasible : t -> hidden:string list -> privatized:string list -> bool
(** Every module requirement satisfied and every exposed public module
    privatized. *)

val cost : t -> hidden:string list -> privatized:string list -> Rat.t

val binomial : int -> int -> int
(** [binomial n k]: the number of [k]-subsets of [n] elements, [0] when
    [k] is outside [0 .. n]. A cardinality pair [(alpha, beta)] expands
    into [binomial |I| alpha * binomial |O| beta] options. *)

val to_sets : t -> t
(** Convert every cardinality requirement into the equivalent explicit
    set requirement (for the set-constraint solvers) and normalize every
    set list: the lists {!Requirement.card_to_sets} and
    {!Requirement.normalize_sets} give on name ranks, computed on the id
    arrays. Returns its argument when it is already in that form. *)

val pp : Format.formatter -> t -> unit
