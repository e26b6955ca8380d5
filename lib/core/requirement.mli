(** Per-module privacy requirements for the workflow Secure-View problem
    (Section 4.2).

    A requirement list records which hidden-attribute choices make a
    module safe, in one of the paper's two input encodings:

    - {e set constraints}: an explicit list of (hidden input set, hidden
      output set) pairs — hiding a superset of some pair is safe;
    - {e cardinality constraints}: a list of (alpha, beta) pairs — hiding
      at least alpha inputs and beta outputs, whichever they are, is
      safe. *)

type cardinality = (int * int) list
(** Pairs [(alpha_i^j, beta_i^j)]. *)

type sets = (string list * string list) list
(** Pairs [(I_i^j, O_i^j)] of hidden input and output attribute sets. *)

type t = Card of cardinality | Sets of sets

val lmax : t -> int
(** Length of the requirement list ([l_i] in the paper). *)

val normalize_card : cardinality -> cardinality
(** Drop dominated pairs (both components >= another pair's) and sort by
    increasing alpha / decreasing beta, the non-redundant form assumed in
    the proof of Theorem 5. *)

val normalize_sets : ('a list * 'a list) list -> ('a list * 'a list) list
(** Sort and deduplicate each side, sort and deduplicate the options
    ([compare] order), and drop options that contain another option.
    Polymorphic so that {!Instance.to_sets} can run it on name ranks. *)

val is_satisfied :
  t -> inputs:string list -> outputs:string list -> hidden:string list -> bool
(** Does the hidden set satisfy some entry of the list? [inputs] and
    [outputs] are the module's attribute names. *)

val card_to_sets : inputs:'a list -> outputs:'a list -> cardinality -> ('a list * 'a list) list
(** Expand a cardinality list into the equivalent explicit set list by
    enumerating attribute subsets of the required sizes. Exponential in
    arity — guarded by {!Svutil.Subset}'s universe limit. *)

val to_sets : inputs:string list -> outputs:string list -> t -> sets

val pp : Format.formatter -> t -> unit
