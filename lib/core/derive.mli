(** Deriving requirement lists from module functionality.

    Section 3.2 notes that the (exponential) standalone analysis of a
    module is amortized across the many workflows that reuse it; this
    module is that analysis. It produces the per-module requirement
    lists consumed by the workflow Secure-View solvers. The amortization
    is {!key}'s: the serve daemon keeps each distinct (table, Gamma)'s
    {!derive} under it, so a module that many requests reuse is derived
    once per daemon.

    Cardinality lists are {e sound under-approximations}: Example 6 says
    hiding {e any} k inputs of a one-one module is safe, but such a
    module can also have asymmetric safe sets (e.g. one input plus a
    different position's output) that no (alpha, beta) pair captures.
    {!sound_cardinality} computes the uniformly-safe profiles;
    {!exact_cardinality} additionally checks that nothing is lost. *)

val sets_requirement : Wf.Wmodule.t -> gamma:int -> Requirement.sets
(** The minimal safe hidden subsets (an antichain, per Proposition 1),
    split into (input, output) parts. Exact by construction. *)

val sound_cardinality : Wf.Wmodule.t -> gamma:int -> Requirement.cardinality
(** The minimal pairs [(alpha, beta)] such that hiding {e every} choice
    of [alpha] inputs and [beta] outputs is safe — the encoding the
    paper's cardinality variant takes as input (Section 4.2). May be
    empty, and may under-approximate the safe sets. *)

val exact_cardinality : Wf.Wmodule.t -> gamma:int -> Requirement.cardinality option
(** [Some list] iff {!sound_cardinality} captures standalone safety
    exactly (satisfying the list is equivalent to safety for every
    hidden subset). *)

val requirement : Wf.Wmodule.t -> gamma:int -> Requirement.t
(** The compact cardinality form when it is exact and non-empty
    (one-one and majority modules of Example 6), the set form
    otherwise. *)

type derived =
  | Card_form of Requirement.cardinality
  | Set_masks of int list
      (** the minimal safe hidden masks: bit [i] stands for the [i]-th
          attribute of [inputs @ outputs] *)

val derive : Wf.Wmodule.t -> gamma:int -> derived
(** {!requirement} before any name is attached: the id-level instance
    builders turn the masks into attribute ids
    ({!Instance.req_of_derived}). *)

val key : Wf.Wmodule.t -> gamma:int -> max_bytes:int -> string option
(** Everything {!derive} reads of its arguments, as one string: Γ, the
    input and output counts, the domains of [inputs @ outputs] and the
    rows, every int written as a zigzag varint. The encoding is
    injective over all ints, so equal keys mean equal derivations:
    {!derive} is a pure function of the key. Names play no part, and the
    rows are read in the sorted order a table keeps, so renaming a
    module or shuffling its rows leaves its key unchanged. [None] when
    the key would be longer than [max_bytes]; its length is counted
    before any byte is written. *)
