let src = Logs.Src.create "secure_view.presolve" ~doc:"LP/ILP presolve"

module Log = (val Logs.src_log src : Logs.LOG)

type reduced = {
  problem : Problem.snapshot;
  restore : Rat.t array -> Rat.t array;
}

type outcome =
  | Infeasible
  | Solved of { values : Rat.t array }
  | Reduced of reduced

exception Infeasible_exn

(* [c * b] with fast paths for the 0/1 bounds that dominate the gadget
   programs: both branches skip a gcd-normalizing rational multiply. *)
let mul_bnd c b =
  if Rat.is_zero b then Rat.zero else if Rat.equal b Rat.one then c else Rat.mul c b

let run (s : Problem.snapshot) =
  let n = s.n and m = s.m in
  let lb = Array.copy s.lb in
  let ub = Array.copy s.ub in
  let row_start = s.row_start and coef = s.term_coef in
  (* The rows are reduced in place: a substituted term's variable reads
     -1, an eliminated row is not [alive], and constants move into
     [rhs]. *)
  let var = Array.copy s.term_var in
  let rhs = Array.copy s.rhs in
  let alive = Array.make m true in
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
  let drop r =
    alive.(r) <- false;
    changed := true
  in
  (* Substitute fixed variables into row [r], then eliminate it when it
     is empty, a singleton (folded into a bound) or redundant under the
     activity bounds; a violated row raises {!Infeasible_exn}. *)
  let process_row r =
    let const = ref Rat.zero in
    let live = ref 0 and last = ref (-1) in
    for k = row_start.(r) to row_start.(r + 1) - 1 do
      let v = var.(k) in
      if v >= 0 then
        if fixed v then begin
          if not (Rat.is_zero lb.(v)) then const := Rat.add !const (mul_bnd coef.(k) lb.(v));
          var.(k) <- -1
        end
        else begin
          incr live;
          last := k
        end
    done;
    if not (Rat.is_zero !const) then rhs.(r) <- Rat.sub rhs.(r) !const;
    let b = rhs.(r) in
    match !live with
    | 0 ->
        let sat =
          match s.cmp.(r) with
          | Problem.Le -> Rat.leq Rat.zero b
          | Problem.Ge -> Rat.geq Rat.zero b
          | Problem.Eq -> Rat.is_zero b
        in
        if sat then drop r else raise Infeasible_exn
    | 1 ->
        (* c * x_v  cmp  rhs  becomes a bound on x_v. *)
        let v = var.(!last) and c = coef.(!last) in
        let bnd = Rat.div b c in
        (match (s.cmp.(r), Rat.sign c > 0) with
        | Problem.Eq, _ ->
            tighten_lb v bnd;
            tighten_ub v bnd
        | Problem.Le, true | Problem.Ge, false -> tighten_ub v bnd
        | Problem.Le, false | Problem.Ge, true -> tighten_lb v bnd);
        drop r
    | _ ->
        (* Min / max activity over the current box; an unbounded side
           is infinite. *)
        let lo = ref Rat.zero and hi = ref Rat.zero in
        let lo_inf = ref false and hi_inf = ref false in
        for k = row_start.(r) to row_start.(r + 1) - 1 do
          let v = var.(k) in
          if v >= 0 then begin
            (* [c * lb_v] bounds the low side when [c > 0] and the high
               side otherwise; [c * ub_v] bounds the other one. *)
            let c = coef.(k) in
            let pos = Rat.sign c > 0 in
            let at_lb = mul_bnd c lb.(v) in
            if pos then lo := Rat.add !lo at_lb else hi := Rat.add !hi at_lb;
            match ub.(v) with
            | None -> if pos then hi_inf := true else lo_inf := true
            | Some u ->
                let at_ub = mul_bnd c u in
                if pos then hi := Rat.add !hi at_ub else lo := Rat.add !lo at_ub
          end
        done;
        let lo_gt = (not !lo_inf) && Rat.gt !lo b
        and hi_lt = (not !hi_inf) && Rat.lt !hi b in
        let always, never =
          match s.cmp.(r) with
          | Problem.Le -> ((not !hi_inf) && Rat.leq !hi b, lo_gt)
          | Problem.Ge -> ((not !lo_inf) && Rat.geq !lo b, hi_lt)
          | Problem.Eq -> (false, lo_gt || hi_lt)
        in
        if never then raise Infeasible_exn else if always then drop r
  in
  (* A row is (re)processed when one of its live terms has a touched
     variable; a row with no terms at all is checked unconditionally. *)
  let needs_pass r =
    let first = row_start.(r) and stop = row_start.(r + 1) in
    let rec any k = k < stop && ((var.(k) >= 0 && touched.(var.(k))) || any (k + 1)) in
    first = stop || any first
  in
  match
    while !changed do
      changed := false;
      normalize_bounds ();
      Array.fill touched_next 0 n false;
      for r = 0 to m - 1 do
        if alive.(r) && needs_pass r then process_row r
      done;
      Array.blit touched_next 0 touched 0 n
    done
  with
  | exception Infeasible_exn -> Infeasible
  | () ->
      (* Reduced index of each surviving variable, in original order. *)
      let var_map = Array.make n (-1) in
      let nk = ref 0 in
      for i = 0 to n - 1 do
        if not (fixed i) then begin
          var_map.(i) <- !nk;
          incr nk
        end
      done;
      let nk = !nk in
      if nk = 0 then begin
        (* All rows were eliminated with their checks passing, so the
           single point [lb] is feasible. *)
        assert (not (Array.exists Fun.id alive));
        Log.debug (fun f -> f "solved outright: all %d variables fixed" n);
        Solved { values = Array.copy lb }
      end
      else begin
        let keep = Array.make nk (-1) in
        for i = 0 to n - 1 do
          if var_map.(i) >= 0 then keep.(var_map.(i)) <- i
        done;
        (* One compaction pass over exact capacities: surviving rows in
           row order, their live terms in term order. *)
        let live_term k = var.(k) >= 0 && var_map.(var.(k)) >= 0 in
        let mk = ref 0 and tk = ref 0 in
        for r = 0 to m - 1 do
          if alive.(r) then begin
            incr mk;
            for k = row_start.(r) to row_start.(r + 1) - 1 do
              if live_term k then incr tk
            done
          end
        done;
        let t = Problem.create ~vars:nk ~rows:!mk ~terms:!tk () in
        Array.iter
          (fun i ->
            let j = Problem.add_var t ~lb:lb.(i) ?ub:ub.(i) ~integer:s.integer.(i) in
            Problem.set_cost t j s.obj.(i))
          keep;
        for r = 0 to m - 1 do
          if alive.(r) then begin
            for k = row_start.(r) to row_start.(r + 1) - 1 do
              if live_term k then Problem.add_term t var_map.(var.(k)) coef.(k)
            done;
            Problem.close_row t s.cmp.(r) rhs.(r)
          end
        done;
        let fixed_val = Array.copy lb in
        let restore values =
          Array.init n (fun i ->
              if var_map.(i) >= 0 then values.(var_map.(i)) else fixed_val.(i))
        in
        Log.debug (fun f -> f "reduced %d vars x %d rows -> %d vars x %d rows" n m nk !mk);
        let name j = Problem.var_name s keep.(j) in
        Reduced { problem = Problem.snapshot ~name t; restore }
      end

let solve_lp ?deadline ?metrics (module S : Simplex.SOLVER) (s : Problem.snapshot) =
  match
    Svutil.Metrics.span
      (Option.value metrics ~default:Svutil.Metrics.nop)
      "lp/presolve"
      (fun () -> run (Problem.relax s))
  with
  | Infeasible -> Simplex.Infeasible
  | Solved { values } -> Simplex.Optimal { objective = Problem.obj_value s values; values }
  | Reduced { problem; restore; _ } -> (
      match S.solve ?deadline ?metrics problem with
      | Simplex.Infeasible -> Simplex.Infeasible
      | Simplex.Unbounded -> Simplex.Unbounded
      | Simplex.Optimal { values; _ } ->
          let full = restore values in
          Simplex.Optimal { objective = Problem.obj_value s full; values = full })
