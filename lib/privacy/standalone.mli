(** Standalone module privacy (Section 3).

    A module [m] is Gamma-standalone-private w.r.t. a visible attribute
    subset [V] if for every input [x] in [pi_I(R)], the possible worlds
    [Worlds(R, V)] admit at least Gamma distinct outputs for [x]
    (Definition 2).

    The checks here use the closed form justified by Lemma 2 and the
    FLIP construction (Appendix A.4):

    [y] is a possible output for [x] iff some row [t] of [R] agrees with
    [x] on the visible inputs and with [y] on the visible outputs.
    Therefore

    [|OUT_{x,m}| = d(x) * prod_{a in O \ V} |Delta_a|]

    where [d(x)] is the number of distinct visible-output projections
    among rows agreeing with [x] on visible inputs. {!Worlds} re-derives
    the same quantities by brute-force enumeration and the test suite
    checks they coincide. *)

val out_size : Wf.Wmodule.t -> visible:string list -> input:int array -> int
(** [|OUT_{x,m}|] for the given input tuple (over the module's input
    schema). @raise Invalid_argument if the input is not in [pi_I(R)]. *)

val min_out_size : Wf.Wmodule.t -> visible:string list -> int
(** Minimum of {!out_size} over all defined inputs — the privacy level
    that the view guarantees. *)

val max_achievable_gamma : Wf.Wmodule.t -> int
(** The largest standalone privacy level any view can guarantee for the
    module: [prod_{a in O} |Delta_a|], attained by hiding everything
    (and an upper bound for every other view by Proposition 1's
    monotonicity). O(|O|), no enumeration — the static feasibility
    pre-check of {!Analysis.Wfcheck} relies on it being cheap.
    Saturates at [max_int]. *)

val is_safe : Wf.Wmodule.t -> visible:string list -> gamma:int -> bool
(** Is [V] a safe subset for [m] and [Gamma]? (Definition 2.) *)

val is_hidden_safe : Wf.Wmodule.t -> hidden:string list -> gamma:int -> bool
(** Same check, parameterized by the hidden complement. *)

val safe_visible_subsets : Wf.Wmodule.t -> gamma:int -> string list list
(** All safe visible subsets [V], by exhaustive [2^k] search
    (Section 3.2's upper bound; [k] must be small). *)

(** {1 The safety table}

    Section 3.2's exponential step, done once per (module, Gamma): the
    safety of every hidden subset, as one bit per subset. A subset is a
    mask over {!Wf.Wmodule.attr_names} order — bit [i] hides the [i]-th
    attribute, so the inputs are the low bits. *)

type table

val safety_table : Wf.Wmodule.t -> gamma:int -> table
(** Decide every hidden subset. Agrees with {!is_hidden_safe} on every
    mask. Uses O(k * |R|) words besides the [2^k] bits and no global
    state. @raise Invalid_argument for modules wider than
    {!Svutil.Subset.max_universe}. *)

val hidden_mask_safe : table -> int -> bool
(** Is hiding the mask's attributes safe? [false] for masks outside
    [0 .. 2^k - 1]. *)

val minimal_hidden_masks : table -> int list
(** The minimal safe masks, in {!Svutil.Subset.by_increasing_size}
    order. *)

val minimal_hidden_subsets : Wf.Wmodule.t -> gamma:int -> string list list
(** The minimal (w.r.t. inclusion) hidden subsets whose complements are
    safe — the antichain from which every safe view arises by
    Proposition 1. These are the per-module "requirement lists" of the
    workflow Secure-View problem. Read off {!safety_table}, in
    {!Svutil.Subset.by_increasing_size} order, names in attribute
    order. *)

val min_cost_hidden :
  ?prune:bool ->
  Wf.Wmodule.t ->
  gamma:int ->
  cost:(string -> Rat.t) ->
  (string list * Rat.t) option
(** Minimum-cost hidden subset (the standalone Secure-View problem).
    [None] if even hiding everything fails. With [prune] (default true)
    the search skips supersets of already-found safe hidden sets, the
    monotonicity shortcut justified by Proposition 1; [prune:false] is
    the naive Algorithm 2 loop, kept for the ablation benchmark.
    Costs must be non-negative. *)

val safe_check_calls : Wf.Wmodule.t -> gamma:int -> prune:bool -> int
(** Number of safety checks the {!min_cost_hidden} search performs —
    instrumentation for the E09 pruning ablation. *)

(** {1 Extensions (Section 6 of the paper)}

    The conclusion lists several directions this library implements:
    non-additive cost functions, the dual objective of maximizing the
    utility of visible data (see {!Core.Objective} for the workflow-level
    accounting), and handling very large attribute domains by
    sampling. *)

val min_cost_hidden_general :
  ?monotone:bool ->
  Wf.Wmodule.t ->
  gamma:int ->
  cost:(string list -> Rat.t) ->
  (string list * Rat.t) option
(** Standalone Secure-View under an arbitrary {e set} cost function
    ("some attribute subsets are more useful than others"). With
    [monotone] (default false) the search assumes
    [cost s <= cost s'] whenever [s] is a subset of [s'] and applies the
    Proposition 1 pruning; without it every subset is priced. *)

val max_gamma_under_budget :
  Wf.Wmodule.t ->
  cost:(string -> Rat.t) ->
  budget:Rat.t ->
  int * string list
(** The dual trade-off: the largest standalone privacy level attainable
    by hiding attributes of total (additive) cost at most [budget], with
    a witness hidden set. The level is [min_out_size], i.e. the largest
    [Gamma] for which some affordable view is safe. *)

val estimate_min_out_size :
  Svutil.Rng.t -> Wf.Wmodule.t -> visible:string list -> samples:int -> int
(** Upper bound on {!min_out_size} from a random sample of the module's
    defined inputs — the practical fallback when the input domain is too
    large to scan (Section 6's "very large domains"). Monotone in
    [samples]; equals the true minimum when [samples] covers all
    inputs. *)

val check_sampled :
  Svutil.Rng.t ->
  Wf.Wmodule.t ->
  visible:string list ->
  gamma:int ->
  samples:int ->
  [ `Unsafe | `Safe_on_sample ]
(** One-sided sampled safety check: [`Unsafe] is definitive (a witness
    input with fewer than [gamma] possible outputs was found);
    [`Safe_on_sample] only certifies the sampled inputs. *)
