module P = Lp.Problem

type variant = Full | No_pair_bound | No_sum_bound

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;
}

let card_of (m : Instance.pmod) =
  match m.Instance.ireq with
  | Instance.Card l -> l
  | Instance.Sets _ ->
      invalid_arg
        (Printf.sprintf "Card_lp: module %s has a set requirement" m.Instance.mname)

(* Variable names, in the order [build] creates the variables: [x_a],
   [w_p], then per module [r_m_j], [y_m_b_j] and [z_m_b_j]. They only
   label the program when it is printed. *)
let var_names (inst : Instance.t) =
  let names = inst.Instance.names in
  let out = ref [] in
  let add parts = out := String.concat "_" parts :: !out in
  Array.iter (fun a -> add [ "x"; a ]) names;
  Array.iter (fun (pub : Instance.pub) -> add [ "w"; pub.Instance.pname ])
    inst.Instance.pubs;
  Array.iter
    (fun (m : Instance.pmod) ->
      let mname = m.Instance.mname and l = List.length (card_of m) in
      for j = 0 to l - 1 do
        add [ "r"; mname; string_of_int j ]
      done;
      let credits prefix side =
        Array.iter
          (fun b ->
            for j = 0 to l - 1 do
              add [ prefix; mname; names.(b); string_of_int j ]
            done)
          side
      in
      credits "y" m.Instance.ins;
      credits "z" m.Instance.outs)
    inst.Instance.pmods;
  Array.of_list (List.rev !out)

let unit_ub = Some Rat.one

let build ?(variant = Full) (inst : Instance.t) =
  let costs = inst.Instance.costs in
  let p = P.create () in
  let attr_var =
    Array.map
      (fun c ->
        let x = P.add_var ?ub:unit_ub ~integer:true p in
        P.set_cost p x c;
        x)
      costs
  in
  Array.iter
    (fun (pub : Instance.pub) ->
      let w = P.add_var ?ub:unit_ub p in
      P.set_cost p w pub.Instance.pcost;
      (* Constraint (21): privatize a public module whenever one of its
         attributes is hidden. *)
      Array.iter
        (fun b ->
          P.add_term p attr_var.(b) Rat.minus_one;
          P.add_term p w Rat.one;
          P.close_row p P.Ge Rat.zero)
        pub.Instance.pattrs)
    inst.Instance.pubs;
  Array.iter
    (fun (m : Instance.pmod) ->
      let card = Array.of_list (card_of m) in
      let r_vars = Array.map (fun _ -> P.add_var ?ub:unit_ub ~integer:true p) card in
      (* (1): some option is selected. *)
      Array.iter (fun r -> P.add_term p r Rat.one) r_vars;
      P.close_row p P.Ge Rat.one;
      (* y / z credit variables per option: [credits.(k).(j)] for the
         module's [k]-th input (output) and option [j]. *)
      let credits side =
        Array.map (fun _ -> Array.map (fun _ -> P.add_var ?ub:unit_ub p) card) side
      in
      let y_vars = credits m.Instance.ins in
      let z_vars = credits m.Instance.outs in
      (* [quota vars j q]: sum_b vars_bj >= q * r_ij. *)
      let quota vars j q =
        P.add_term p r_vars.(j) (Rat.of_int (-q));
        Array.iter (fun per_j -> P.add_term p per_j.(j) Rat.one) vars;
        P.close_row p P.Ge Rat.zero
      in
      (* [at_most v u]: v - u <= 0, with [u] created before [v]. *)
      let at_most v u =
        P.add_term p u Rat.minus_one;
        P.add_term p v Rat.one;
        P.close_row p P.Le Rat.zero
      in
      Array.iteri
        (fun j (alpha, beta) ->
          (* (2): sum_b y_bij >= alpha * r_ij. *)
          quota y_vars j alpha;
          (* (3): sum_b z_bij >= beta * r_ij. *)
          quota z_vars j beta;
          (* (6)/(7): credits only flow through the selected option. *)
          if variant <> No_pair_bound then begin
            let bound per_j = at_most per_j.(j) r_vars.(j) in
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
            | No_sum_bound -> Array.iter (fun v -> at_most v xb) per_j
            | Full | No_pair_bound ->
                P.add_term p xb Rat.minus_one;
                Array.iter (fun v -> P.add_term p v Rat.one) per_j;
                P.close_row p P.Le Rat.zero)
          vars
      in
      couple m.Instance.ins y_vars;
      couple m.Instance.outs z_vars)
    inst.Instance.pmods;
  let names = lazy (var_names inst) in
  let problem = P.snapshot ~name:(fun i -> (Lazy.force names).(i)) p in
  { problem; attr_var }

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
