module P = Lp.Problem
module L = Lp.Linexpr

type variant = Full | No_pair_bound | No_sum_bound

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;
  pub_var : int array;
  point_of : Solution.t -> Rat.t array option;
}

let card_of (m : Instance.pmod) =
  match m.Instance.ireq with
  | Instance.Card l -> l
  | Instance.Sets _ ->
      invalid_arg
        (Printf.sprintf "Card_lp: module %s has a set requirement" m.Instance.mname)

(* [r_m_j], [y_m_b_j], ...: the names only label the program when it
   is printed. *)
let var_name parts = String.concat "_" parts

let build ?(variant = Full) (inst : Instance.t) =
  let names = inst.Instance.names and costs = inst.Instance.costs in
  let p = P.create () in
  let zero_one = Rat.one in
  let attr_var = Array.map (fun a -> P.add_var ~ub:zero_one ~integer:true p ("x_" ^ a)) names in
  let pub_var =
    Array.map
      (fun (pub : Instance.pub) ->
        let w = P.add_var ~ub:zero_one p ("w_" ^ pub.Instance.pname) in
        (* Constraint (21): privatize a public module whenever one of its
           attributes is hidden. *)
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
        let card = Array.of_list (card_of m) in
        let mname = m.Instance.mname in
        let r_vars =
          Array.mapi
            (fun j _ ->
              P.add_var ~ub:zero_one ~integer:true p (var_name [ "r"; mname; string_of_int j ]))
            card
        in
        (* (1): some option is selected. *)
        P.add_constraint p (L.sum_of_vars (Array.to_list r_vars)) P.Ge Rat.one;
        (* y / z credit variables per option: [credits.(k).(j)] for the
           module's [k]-th input (output) and option [j]. *)
        let credits prefix side =
          Array.map
            (fun b ->
              Array.mapi
                (fun j _ ->
                  P.add_var ~ub:zero_one p (var_name [ prefix; mname; names.(b); string_of_int j ]))
                card)
            side
        in
        let y_vars = credits "y" m.Instance.ins in
        let z_vars = credits "z" m.Instance.outs in
        let column vars j = Array.fold_right (fun per_j acc -> per_j.(j) :: acc) vars [] in
        Array.iteri
          (fun j (alpha, beta) ->
            let rj = r_vars.(j) in
            (* (2): sum_b y_bij >= alpha * r_ij. *)
            P.add_constraint p
              (L.add (L.sum_of_vars (column y_vars j)) (L.term rj (Rat.of_int (-alpha))))
              P.Ge Rat.zero;
            (* (3): sum_b z_bij >= beta * r_ij. *)
            P.add_constraint p
              (L.add (L.sum_of_vars (column z_vars j)) (L.term rj (Rat.of_int (-beta))))
              P.Ge Rat.zero;
            (* (6)/(7): credits only flow through the selected option. *)
            if variant <> No_pair_bound then begin
              let bound per_j =
                P.add_constraint p (L.of_list [ (per_j.(j), Rat.one); (rj, Rat.minus_one) ]) P.Le Rat.zero
              in
              Array.iter bound y_vars;
              Array.iter bound z_vars
            end)
          card;
        (* (4)/(5): an attribute only gives credit if it is hidden. *)
        let couple side vars =
          Array.iteri
            (fun k per_j ->
              let xb = attr_var.(side.(k)) in
              match variant with
              | No_sum_bound ->
                  Array.iter
                    (fun v ->
                      P.add_constraint p (L.of_list [ (v, Rat.one); (xb, Rat.minus_one) ]) P.Le Rat.zero)
                    per_j
              | Full | No_pair_bound ->
                  P.add_constraint p
                    (L.add (L.sum_of_vars (Array.to_list per_j)) (L.term xb Rat.minus_one))
                    P.Le Rat.zero)
            vars
        in
        couple m.Instance.ins y_vars;
        couple m.Instance.outs z_vars;
        (m, card, r_vars, y_vars, z_vars))
      inst.Instance.pmods
  in
  let problem = P.snapshot p in
  (* A full-space feasible point witnessing a given solution, for warm
     incumbent injection ({!Lp.Ilp}): hidden attributes and exposed
     publics set their indicators; per module the first satisfied
     cardinality pair is selected and credited by exactly the hidden
     attributes. [None] when the solution satisfies some module by no
     pair — i.e. it is not actually feasible. *)
  let point_of (s : Solution.t) =
    let hidden = Instance.mask_of_names inst s.Solution.hidden in
    let v = Array.make problem.P.n Rat.zero in
    Array.iteri (fun a i -> if hidden.(a) then v.(i) <- Rat.one) attr_var;
    Array.iteri
      (fun j (pub : Instance.pub) -> if Instance.exposed pub hidden then v.(pub_var.(j)) <- Rat.one)
      inst.Instance.pubs;
    let count ids = Array.fold_left (fun n b -> if hidden.(b) then n + 1 else n) 0 ids in
    try
      Array.iter
        (fun ((m : Instance.pmod), card, r_vars, y_vars, z_vars) ->
          let n_in = count m.Instance.ins and n_out = count m.Instance.outs in
          let rec find j =
            if j = Array.length card then raise Exit
            else
              let alpha, beta = card.(j) in
              if n_in >= alpha && n_out >= beta then j else find (j + 1)
          in
          let j = find 0 in
          v.(r_vars.(j)) <- Rat.one;
          let credit side vars =
            Array.iteri (fun k b -> if hidden.(b) then v.(vars.(k).(j)) <- Rat.one) side
          in
          credit m.Instance.ins y_vars;
          credit m.Instance.outs z_vars)
        mod_vars;
      Some v
    with Exit -> None
  in
  { problem; attr_var; pub_var; point_of }

let lp_relaxation ?variant ?(mode = Lp.Simplex.Hybrid_mode) ?deadline ?metrics
    inst =
  let { problem; attr_var; _ } = build ?variant inst in
  let relaxed = P.relax problem in
  let solve =
    Lp.Presolve.solve_lp ?deadline ?metrics (Lp.Simplex.solver_of_mode mode)
  in
  match solve relaxed with
  | Lp.Simplex.Optimal { objective; values } ->
      `Optimal ((fun a -> values.(attr_var.(a))), objective)
  | Lp.Simplex.Infeasible -> `Infeasible
  | Lp.Simplex.Unbounded -> assert false (* bounded: all vars in [0,1] *)
