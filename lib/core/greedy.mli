(** The greedy algorithm of Theorem 7: hide, for every module
    independently, its cheapest satisfying option, and take the union.

    Under gamma-bounded data sharing this is a (gamma+1)-approximation;
    Example 5 shows it can be off by Omega(n) when sharing is unbounded.
    Exposed public modules are privatized afterwards (no guarantee is
    claimed for that part — Appendix C.2 shows privatization costs make
    even the no-sharing case set-cover-hard). *)

val solve : Instance.t -> Solution.t
(** @raise Invalid_argument if some requirement list is empty (the
    instance is then infeasible). *)

val feasible_solution : Instance.t -> Solution.t option
(** {!solve}'s solution when it is feasible, else [None] (also when
    {!solve} raises [Invalid_argument]). The engine's greedy method and
    its LP-rounding fallback answer it, and so do an exact search
    stopped before any incumbent and a brute-force enumeration cut
    before it saw a feasible set. *)
