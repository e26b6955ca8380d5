module P = Lp.Problem
module L = Lp.Linexpr

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;
  pub_var : int array;
  point_of : Solution.t -> Rat.t array option;
}

let build (inst : Instance.t) =
  let inst = Instance.to_sets inst in
  let names = inst.Instance.names and costs = inst.Instance.costs in
  let p = P.create () in
  let attr_var = Array.map (fun a -> P.add_var ~ub:Rat.one ~integer:true p ("x_" ^ a)) names in
  let pub_var =
    Array.map
      (fun (pub : Instance.pub) ->
        let w = P.add_var ~ub:Rat.one p ("w_" ^ pub.Instance.pname) in
        Array.iter
          (fun b ->
            P.add_constraint p
              (L.of_list [ (w, Rat.one); (attr_var.(b), Rat.minus_one) ])
              P.Ge Rat.zero)
          pub.Instance.pattrs;
        w)
      inst.Instance.pubs
  in
  let obj = ref L.empty in
  Array.iteri (fun a v -> obj := L.add !obj (L.term v costs.(a))) attr_var;
  Array.iteri
    (fun j (pub : Instance.pub) -> obj := L.add !obj (L.term pub_var.(j) pub.Instance.pcost))
    inst.Instance.pubs;
  P.set_objective p !obj;
  let mod_vars =
    Array.map
      (fun (m : Instance.pmod) ->
        let options =
          match m.Instance.ireq with
          | Instance.Sets a -> a
          | Instance.Card _ -> assert false (* removed by to_sets *)
        in
        let r_vars =
          Array.mapi
            (fun j _ -> P.add_var ~ub:Rat.one p (String.concat "_" [ "r"; m.Instance.mname; string_of_int j ]))
            options
        in
        (* (15/19): some option selected. *)
        P.add_constraint p (L.sum_of_vars (Array.to_list r_vars)) P.Ge Rat.one;
        (* (16/20): selecting an option hides all its attributes. *)
        let hides rj b =
          P.add_constraint p (L.of_list [ (attr_var.(b), Rat.one); (rj, Rat.minus_one) ]) P.Ge Rat.zero
        in
        Array.iteri
          (fun j (ins, outs) ->
            Array.iter (hides r_vars.(j)) ins;
            Array.iter (hides r_vars.(j)) outs)
          options;
        (options, r_vars))
      inst.Instance.pmods
  in
  let problem = P.snapshot p in
  (* Full-space witness of a solution for warm incumbent injection:
     indicators for hidden attributes / exposed publics, and per module
     the first option fully covered by the hidden set. [None] when some
     module has no covered option (the solution is infeasible). *)
  let point_of (s : Solution.t) =
    let hidden = Instance.mask_of_names inst s.Solution.hidden in
    let v = Array.make problem.P.n Rat.zero in
    Array.iteri (fun a i -> if hidden.(a) then v.(i) <- Rat.one) attr_var;
    Array.iteri
      (fun j (pub : Instance.pub) -> if Instance.exposed pub hidden then v.(pub_var.(j)) <- Rat.one)
      inst.Instance.pubs;
    let covered ids = Array.for_all (fun b -> hidden.(b)) ids in
    try
      Array.iter
        (fun (options, r_vars) ->
          let rec find j =
            if j = Array.length options then raise Exit
            else
              let ins, outs = options.(j) in
              if covered ins && covered outs then j else find (j + 1)
          in
          v.(r_vars.(find 0)) <- Rat.one)
        mod_vars;
      Some v
    with Exit -> None
  in
  { problem; attr_var; pub_var; point_of }

let lp_relaxation ?(mode = Lp.Simplex.Hybrid_mode) ?deadline ?metrics inst =
  let { problem; attr_var; _ } = build inst in
  let relaxed = P.relax problem in
  let solve =
    Lp.Presolve.solve_lp ?deadline ?metrics (Lp.Simplex.solver_of_mode mode)
  in
  match solve relaxed with
  | Lp.Simplex.Optimal { objective; values } ->
      `Optimal ((fun a -> values.(attr_var.(a))), objective)
  | Lp.Simplex.Infeasible -> `Infeasible
  | Lp.Simplex.Unbounded -> assert false
