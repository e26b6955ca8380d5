(** Secure-View solutions: a hidden attribute set, the privatized public
    modules, and the total cost [c(V-bar) + c(P-bar)]. *)

type t = { hidden : string list; privatized : string list; cost : Rat.t }

val of_mask : Instance.t -> bool array -> t
(** Close a hidden mask (one slot per attribute id) into a full
    solution: privatize exactly the exposed public modules (Theorem 8's
    rule) and price the result. [hidden] comes out in name order,
    [privatized] in instance order. *)

val of_ids : Instance.t -> int list -> t
(** {!of_mask} of the listed attribute ids. *)

val of_hidden : Instance.t -> string list -> t
(** {!of_mask} of the named attributes.
    @raise Invalid_argument on a name the instance does not have. *)

val is_feasible : Instance.t -> t -> bool

val compare_cost : t -> t -> int

val pp : Format.formatter -> t -> unit
