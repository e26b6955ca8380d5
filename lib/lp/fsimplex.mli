(** Double-precision revised simplex over a {!Sform} layout.

    This is the basis-hunting half of the hybrid solver: it runs a
    sparse-column revised simplex (product-form inverse, Dantzig
    pricing, Harris-style ratio tolerance, Markowitz-style sparsity
    ordering on refactorization) entirely in doubles, and reports only
    a {e candidate} basis with its float primal–dual point.  Nothing it
    returns is trusted: {!Certify} checks the point exactly, or
    refactorizes the basis in exact rationals, and accepts, repairs, or
    rejects it.  Any numerical misadventure here therefore costs time,
    never correctness.

    A [t] is bound to one {!Sform.t} and keeps its factorization between
    calls: branch-and-bound nodes that change only the right-hand side
    warm-start from the previous optimal basis with a bounded dual
    pass. *)

type t

val create : Sform.t -> t
(** Solver state for the layout (columns converted to doubles once). *)

type point = { xb : float array; y : float array }
(** The float primal–dual pair of a basis, both indexed by row: basic
    values [x_B = B^-1 b] (row [r] holds the value of the row's basic
    column) and duals [y = c_B B^-1]. *)

type outcome =
  | Optimal_basis of { basis : int array; point : point }
      (** candidate optimal basis, one column per row, with its float
          point for {!Certify.check} *)
  | Infeasible_basis of { basis : int array; art_sign : int array }
      (** phase 1 ended with a positive artificial sum; [art_sign.(r)]
          is the sign of row [r]'s artificial column (0 when unused) *)
  | Infeasible_col of { basis : int array; col : int }
      (** the warm dual pass found basic [col] negative with no entering
          column — a Farkas-certificate hint *)
  | Unbounded_hint of int array
      (** phase 2 found an apparently unbounded ray from this basis *)
  | Stalled  (** iteration cap or numerical breakdown: learn nothing *)

val solve :
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  t ->
  rhs:Rat.t array ->
  outcome
(** Minimize the layout's objective under the given right-hand side.
    Ticks [simplex.hybrid.float_pivots].
    @raise Svutil.Deadline.Expired via periodic polls. *)
