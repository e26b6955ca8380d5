(* Decomposition profiler for the hybrid solve path: prints where the
   time of the e12/e14/e15-style gadget ILP kernels goes, layer by
   layer (standard form, float pass, exact certification, engine), plus
   the node/accept counters of the two solve routes. Deliberately not
   wired into the bechamel harness — these are quick gettimeofday loops
   for steering optimization work, not recorded baselines.
   Run with: dune exec bench/profile.exe *)

module Rng = Svutil.Rng

let time label n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () in
  Printf.printf "%-32s %10.1f us/run  (%d runs)\n" label
    ((t1 -. t0) *. 1e6 /. float_of_int n)
    n

let () =
  let g = Combinat.Vertex_cover.random_cubic (Rng.create 46) ~n:4 in
  let inst = Reductions.Vc_nosharing.of_vertex_cover g in
  let ip = (Core.Set_lp.build inst).Core.Set_lp.problem in
  let relaxed = Lp.Problem.relax ip in
  let sf = Lp.Sform.make relaxed in
  Printf.printf "e12 IP: n=%d m=%d m0=%d ncols=%d\n" sf.Lp.Sform.n
    sf.Lp.Sform.m sf.Lp.Sform.m0 sf.Lp.Sform.ncols;

  time "ilp hybrid solve" 20 (fun () -> Lp.Ilp.Hybrid.solve ip);
  time "ilp exact solve" 5 (fun () -> Lp.Ilp.Exact.solve ip);

  time "sform.make" 100 (fun () -> Lp.Sform.make relaxed);
  time "fsimplex.create" 100 (fun () -> Lp.Fsimplex.create sf);
  let rhs =
    match Lp.Sform.rhs sf ~lb:relaxed.Lp.Problem.lb ~ub:relaxed.Lp.Problem.ub with
    | Lp.Sform.Rhs r -> r
    | _ -> assert false
  in
  time "sform.rhs" 1000 (fun () ->
      Lp.Sform.rhs sf ~lb:relaxed.Lp.Problem.lb ~ub:relaxed.Lp.Problem.ub);
  let fs = Lp.Fsimplex.create sf in
  time "fsimplex cold solve" 100 (fun () ->
      Lp.Fsimplex.invalidate fs;
      Lp.Fsimplex.solve fs ~rhs);
  let basis =
    match Lp.Fsimplex.solve fs ~rhs with
    | Lp.Fsimplex.Optimal_basis b -> b
    | _ -> assert false
  in
  time "certify (fresh cache)" 100 (fun () ->
      Lp.Certify.check
        ~cache:(Lp.Certify.cache_create ())
        sf ~rhs ~lb:relaxed.Lp.Problem.lb ~basis);
  let cache = Lp.Certify.cache_create () in
  ignore (Lp.Certify.check ~cache sf ~rhs ~lb:relaxed.Lp.Problem.lb ~basis);
  time "certify (cache hit)" 100 (fun () ->
      Lp.Certify.check ~cache sf ~rhs ~lb:relaxed.Lp.Problem.lb ~basis);
  time "hybrid lp solve" 100 (fun () -> Lp.Simplex.Hybrid.solve relaxed);
  time "exact lp solve" 20 (fun () -> Lp.Simplex.Exact.solve relaxed);

  time "e12 core.exact hybrid" 20 (fun () -> Core.Exact.solve inst);
  time "e12 engine hybrid" 20 (fun () ->
      Core.Engine.run
        {
          (Core.Engine.default_request inst) with
          Core.Engine.meth = Core.Engine.Exact;
        });
  time "e12 greedy seed" 200 (fun () -> Core.Greedy.solve inst);
  let show_counters label m =
    Printf.printf "%-32s" label;
    List.iter
      (fun (k, v) -> Printf.printf " %s=%d" k v)
      (List.sort compare (Svutil.Metrics.counters m));
    print_newline ()
  in
  let m1 = Svutil.Metrics.create () in
  ignore (Core.Exact.solve ~metrics:m1 inst);
  show_counters "core.exact hybrid counters" m1;
  let m2 = Svutil.Metrics.create () in
  ignore (Lp.Ilp.Hybrid.solve_with_stats ~metrics:m2 ip);
  show_counters "direct ilp hybrid counters" m2;
  let card_ip = (Core.Card_lp.build inst).Core.Card_lp.problem in
  let card_sf = Lp.Sform.make (Lp.Problem.relax card_ip) in
  Printf.printf "card IP: n=%d m=%d m0=%d ncols=%d\n" card_sf.Lp.Sform.n
    card_sf.Lp.Sform.m card_sf.Lp.Sform.m0 card_sf.Lp.Sform.ncols;
  time "card ilp hybrid" 20 (fun () -> Lp.Ilp.Hybrid.solve card_ip);
  let card_relaxed = Lp.Problem.relax card_ip in
  time "card lp hybrid" 100 (fun () -> Lp.Simplex.Hybrid.solve card_relaxed);
  let card_rhs =
    match
      Lp.Sform.rhs card_sf ~lb:card_relaxed.Lp.Problem.lb
        ~ub:card_relaxed.Lp.Problem.ub
    with
    | Lp.Sform.Rhs r -> r
    | _ -> assert false
  in
  let card_fs = Lp.Fsimplex.create card_sf in
  (match Lp.Fsimplex.solve card_fs ~rhs:card_rhs with
  | Lp.Fsimplex.Optimal_basis cb ->
      time "card certify fresh" 50 (fun () ->
          Lp.Certify.check
            ~cache:(Lp.Certify.cache_create ())
            card_sf ~rhs:card_rhs ~lb:card_relaxed.Lp.Problem.lb ~basis:cb)
  | _ -> print_endline "card float solve: no optimal basis");

  (* e14/e15-style kernels: one-node solves where the reduction and the
     surrounding machinery may dominate the LP. *)
  let sc = Combinat.Set_cover.random (Rng.create 44) ~universe:6 ~n_sets:4 in
  let lc =
    Combinat.Label_cover.random (Rng.create 45) ~left:2 ~right:1 ~labels:2
      ~edge_prob:0.7
  in
  print_newline ();
  time "e14 reduction build" 200 (fun () -> Reductions.Sc_general.of_set_cover sc);
  let e14 = Reductions.Sc_general.of_set_cover sc in
  time "e14 solve hybrid" 100 (fun () -> Core.Exact.solve e14);
  time "e14 solve exact" 50 (fun () ->
      Core.Exact.solve ~mode:Lp.Simplex.Exact_mode e14);
  let e14_ip = (Core.Set_lp.build e14).Core.Set_lp.problem in
  time "e14 set_lp build" 200 (fun () -> Core.Set_lp.build e14);
  time "e14 ilp hybrid" 100 (fun () -> Lp.Ilp.Hybrid.solve e14_ip);
  time "e14 ilp exact" 50 (fun () -> Lp.Ilp.Exact.solve e14_ip);
  print_newline ();
  time "e15 reduction build" 200 (fun () -> Reductions.Lc_general.of_label_cover lc);
  let e15 = Reductions.Lc_general.of_label_cover lc in
  time "e15 solve hybrid" 100 (fun () -> Core.Exact.solve e15);
  time "e15 solve exact" 50 (fun () ->
      Core.Exact.solve ~mode:Lp.Simplex.Exact_mode e15)
