module P = Lp.Problem

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;
  pub_var : int array;
  point_of : Solution.t -> Rat.t array option;
}

let options_of (m : Instance.pmod) =
  match m.Instance.ireq with
  | Instance.Sets a -> a
  | Instance.Card _ -> assert false (* removed by to_sets *)

(* Variable names, in the order [build] creates the variables: [x_a],
   [w_p], then [r_m_j] per module option. They only label the program
   when it is printed. *)
let var_names (inst : Instance.t) =
  let out = ref [] in
  let add parts = out := String.concat "_" parts :: !out in
  Array.iter (fun a -> add [ "x"; a ]) inst.Instance.names;
  Array.iter (fun (pub : Instance.pub) -> add [ "w"; pub.Instance.pname ])
    inst.Instance.pubs;
  Array.iter
    (fun (m : Instance.pmod) ->
      Array.iteri
        (fun j _ -> add [ "r"; m.Instance.mname; string_of_int j ])
        (options_of m))
    inst.Instance.pmods;
  Array.of_list (List.rev !out)

let unit_ub = Some Rat.one

let build (inst : Instance.t) =
  let inst = Instance.to_sets inst in
  let p = P.create () in
  let attr_var =
    Array.map
      (fun c ->
        let x = P.add_var ?ub:unit_ub ~integer:true p in
        P.set_cost p x c;
        x)
      inst.Instance.costs
  in
  (* [covers u v]: u - v >= 0, with [u] created before [v]. *)
  let covers u v =
    P.add_term p u Rat.one;
    P.add_term p v Rat.minus_one;
    P.close_row p P.Ge Rat.zero
  in
  let pub_var =
    Array.map
      (fun (pub : Instance.pub) ->
        let w = P.add_var ?ub:unit_ub p in
        P.set_cost p w pub.Instance.pcost;
        Array.iter
          (fun b ->
            P.add_term p attr_var.(b) Rat.minus_one;
            P.add_term p w Rat.one;
            P.close_row p P.Ge Rat.zero)
          pub.Instance.pattrs;
        w)
      inst.Instance.pubs
  in
  let mod_vars =
    Array.map
      (fun (m : Instance.pmod) ->
        let options = options_of m in
        let r_vars = Array.map (fun _ -> P.add_var ?ub:unit_ub p) options in
        (* (15/19): some option selected. *)
        Array.iter (fun r -> P.add_term p r Rat.one) r_vars;
        P.close_row p P.Ge Rat.one;
        (* (16/20): selecting an option hides all its attributes. *)
        Array.iteri
          (fun j (ins, outs) ->
            let hides b = covers attr_var.(b) r_vars.(j) in
            Array.iter hides ins;
            Array.iter hides outs)
          options;
        (options, r_vars))
      inst.Instance.pmods
  in
  let names = lazy (var_names inst) in
  let problem = P.snapshot ~name:(fun i -> (Lazy.force names).(i)) p in
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
