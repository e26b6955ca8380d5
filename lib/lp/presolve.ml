let src = Logs.Src.create "secure_view.presolve" ~doc:"LP/ILP presolve"

module Log = (val Logs.src_log src : Logs.LOG)

type reduced = {
  problem : Problem.snapshot;
  restore : Rat.t array -> Rat.t array;
  keep : int array;
}

type outcome =
  | Infeasible
  | Solved of { values : Rat.t array }
  | Reduced of reduced

exception Infeasible_exn

(* Activity bounds are rationals extended with infinities (None). *)
let add_lo acc term = match (acc, term) with Some a, Some b -> Some (Rat.add a b) | _ -> None

(* [c * b] with fast paths for the 0/1 bounds that dominate the gadget
   programs: both branches skip a gcd-normalizing rational multiply. *)
let mul_bnd c b =
  if Rat.is_zero b then Rat.zero else if Rat.equal b Rat.one then c else Rat.mul c b

let run (s : Problem.snapshot) =
  let n = s.n in
  let lb = Array.copy s.lb in
  let ub = Array.copy s.ub in
  (* Rows live as plain term lists between passes; [Linexpr] is only
     rebuilt once for the final reduced problem. *)
  let rows =
    ref
      (Array.to_list s.constraints
      |> List.map (fun (expr, cmp, rhs) -> (Linexpr.to_list expr, cmp, rhs)))
  in
  let changed = ref true in
  (* Bounds touched in the previous pass: a row none of whose variables
     were touched cannot change, so later passes skip it without any
     rational arithmetic. *)
  let touched = Array.make n true in
  let touched_next = Array.make n false in
  let fixed i = match ub.(i) with Some u -> Rat.equal lb.(i) u | None -> false in
  let tighten_lb i v =
    if Rat.gt v lb.(i) then begin
      lb.(i) <- v;
      touched_next.(i) <- true;
      changed := true
    end
  in
  let tighten_ub i v =
    match ub.(i) with
    | Some u when Rat.leq u v -> ()
    | _ ->
        ub.(i) <- Some v;
        touched_next.(i) <- true;
        changed := true
  in
  (* Integer bounds round inward; crossed bounds are infeasible. *)
  let normalize_bounds () =
    for i = 0 to n - 1 do
      if s.integer.(i) && touched.(i) then begin
        if not (Rat.is_integer lb.(i)) then lb.(i) <- Rat.of_bigint (Rat.ceil lb.(i));
        match ub.(i) with
        | Some u when not (Rat.is_integer u) -> ub.(i) <- Some (Rat.of_bigint (Rat.floor u))
        | _ -> ()
      end;
      if touched.(i) then
        match ub.(i) with
        | Some u when Rat.lt u lb.(i) -> raise Infeasible_exn
        | _ -> ()
    done
  in
  (* Substitute fixed variables into a row; returns [None] when the row
     was eliminated (dropped as redundant, folded into a bound, or found
     infeasible via {!Infeasible_exn}). *)
  let process_row (terms, cmp, rhs) =
    let const = ref Rat.zero in
    let live =
      List.filter
        (fun (v, c) ->
          if Rat.is_zero c then false
          else if fixed v then begin
            if not (Rat.is_zero lb.(v)) then
              const := Rat.add !const (mul_bnd c lb.(v));
            false
          end
          else true)
        terms
    in
    let rhs = if Rat.is_zero !const then rhs else Rat.sub rhs !const in
    match live with
    | [] ->
        let sat =
          match cmp with
          | Problem.Le -> Rat.leq Rat.zero rhs
          | Problem.Ge -> Rat.geq Rat.zero rhs
          | Problem.Eq -> Rat.is_zero rhs
        in
        if sat then begin
          changed := true;
          None
        end
        else raise Infeasible_exn
    | [ (v, c) ] ->
        (* c * x_v  cmp  rhs  becomes a bound on x_v. *)
        let bnd = Rat.div rhs c in
        (match (cmp, Rat.sign c > 0) with
        | Problem.Eq, _ ->
            tighten_lb v bnd;
            tighten_ub v bnd
        | Problem.Le, true | Problem.Ge, false -> tighten_ub v bnd
        | Problem.Le, false | Problem.Ge, true -> tighten_lb v bnd);
        changed := true;
        None
    | live -> (
        (* Min / max activity over the current box ([None] = infinite). *)
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (v, c) ->
              if Rat.sign c > 0 then
                ( add_lo lo (Some (mul_bnd c lb.(v))),
                  add_lo hi (Option.map (mul_bnd c) ub.(v)) )
              else
                ( add_lo lo (Option.map (mul_bnd c) ub.(v)),
                  add_lo hi (Some (mul_bnd c lb.(v))) ))
            (Some Rat.zero, Some Rat.zero)
            live
        in
        let always, never =
          match cmp with
          | Problem.Le ->
              ( (match hi with Some h -> Rat.leq h rhs | None -> false),
                match lo with Some l -> Rat.gt l rhs | None -> false )
          | Problem.Ge ->
              ( (match lo with Some l -> Rat.geq l rhs | None -> false),
                match hi with Some h -> Rat.lt h rhs | None -> false )
          | Problem.Eq ->
              ( false,
                (match lo with Some l -> Rat.gt l rhs | None -> false)
                || match hi with Some h -> Rat.lt h rhs | None -> false )
        in
        if never then raise Infeasible_exn
        else if always then begin
          changed := true;
          None
        end
        else Some (live, cmp, rhs))
  in
  match
    while !changed do
      changed := false;
      normalize_bounds ();
      Array.fill touched_next 0 n false;
      rows :=
        List.filter_map
          (fun ((terms, _, _) as row) ->
            (* Term-less rows have no variable to be touched through;
               they must be checked (and eliminated, or found
               infeasible) unconditionally. *)
            match terms with
            | [] -> process_row row
            | terms ->
                if List.exists (fun (v, _) -> touched.(v)) terms then process_row row
                else Some row)
          !rows;
      Array.blit touched_next 0 touched 0 n
    done
  with
  | exception Infeasible_exn -> Infeasible
  | () ->
      let n_fixed = ref 0 in
      for i = 0 to n - 1 do
        if fixed i then incr n_fixed
      done;
      if !n_fixed = n then begin
        (* All rows were eliminated with their checks passing, so the
           single point [lb] is feasible. *)
        assert (!rows = []);
        Log.debug (fun f -> f "solved outright: all %d variables fixed" n);
        Solved { values = Array.copy lb }
      end
      else begin
        let var_map = Array.make n (-1) in
        let t = Problem.create () in
        for i = 0 to n - 1 do
          if not (fixed i) then
            var_map.(i) <-
              Problem.add_var t ~lb:lb.(i) ?ub:ub.(i) ~integer:s.integer.(i)
                s.names.(i)
        done;
        let remap_terms terms =
          Linexpr.of_list
            (List.filter_map
               (fun (v, c) ->
                 if var_map.(v) >= 0 then Some (var_map.(v), c) else None)
               terms)
        in
        List.iter
          (fun (terms, cmp, rhs) -> Problem.add_constraint t (remap_terms terms) cmp rhs)
          !rows;
        Problem.set_objective t (remap_terms (Linexpr.to_list s.objective));
        let fixed_val = Array.copy lb in
        let restore values =
          Array.init n (fun i ->
              if var_map.(i) >= 0 then values.(var_map.(i)) else fixed_val.(i))
        in
        (* Forward map: reduced index -> original index. [add_var]
           assigns indices in scan order, so collecting the surviving
           originals in order inverts [var_map]. *)
        let keep = Array.make (n - !n_fixed) (-1) in
        for i = 0 to n - 1 do
          if var_map.(i) >= 0 then keep.(var_map.(i)) <- i
        done;
        Log.debug (fun f ->
            f "reduced %d vars x %d rows -> %d vars x %d rows" n
              (Array.length s.constraints) (n - !n_fixed) (List.length !rows));
        Reduced { problem = Problem.snapshot t; restore; keep }
      end

(* External variable fixings (e.g. Core.Flow's static must-hide /
   may-expose verdicts) enter as pinned bounds, so [run]'s fixpoint
   substitutes them out exactly like any other coincident pair. The
   caller vouches for optimum preservation; we only check the pin is
   inside the variable's box and respects integrality. *)
let apply_fixings (s : Problem.snapshot) fixings =
  match fixings with
  | [] -> s
  | _ ->
      let lb = Array.copy s.Problem.lb and ub = Array.copy s.Problem.ub in
      List.iter
        (fun (i, v) ->
          if i < 0 || i >= s.Problem.n then
            invalid_arg "Presolve.apply_fixings: variable index out of range";
          if
            Rat.lt v lb.(i)
            || (match ub.(i) with Some u -> Rat.gt v u | None -> false)
            || (s.Problem.integer.(i) && not (Rat.is_integer v))
          then
            invalid_arg
              (Printf.sprintf "Presolve.apply_fixings: %s = %s is outside its box"
                 s.Problem.names.(i) (Rat.to_string v));
          lb.(i) <- v;
          ub.(i) <- Some v)
        fixings;
      Problem.with_bounds s ~lb ~ub

let solve_lp ?deadline ?metrics (module S : Simplex.SOLVER) (s : Problem.snapshot) =
  match
    Svutil.Metrics.span
      (Option.value metrics ~default:Svutil.Metrics.nop)
      "lp/presolve"
      (fun () -> run (Problem.relax s))
  with
  | Infeasible -> Simplex.Infeasible
  | Solved { values } ->
      let objective = Linexpr.eval s.objective (fun v -> values.(v)) in
      Simplex.Optimal { objective; values }
  | Reduced { problem; restore; _ } -> (
      match S.solve ?deadline ?metrics problem with
      | Simplex.Infeasible -> Simplex.Infeasible
      | Simplex.Unbounded -> Simplex.Unbounded
      | Simplex.Optimal { values; _ } ->
          let full = restore values in
          let objective = Linexpr.eval s.objective (fun v -> full.(v)) in
          Simplex.Optimal { objective; values = full })
