(* Domain-based implementation, selected by dune on OCaml >= 5.
   Kept signature-identical with par_seq.ml; see par.mli. *)

let default_jobs () =
  match Sys.getenv_opt "SV_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let map_array ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  if jobs <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let err = Atomic.make None in
    (* Worker [k] evaluates items k, k+jobs, k+2*jobs, ... — each slot of
       [results] is written by exactly one domain, and [Domain.join]
       orders those writes before the reads below. *)
    let worker k () =
      try
        let i = ref k in
        while !i < n do
          results.(!i) <- Some (f xs.(!i));
          i := !i + jobs
        done
      with e -> ignore (Atomic.compare_and_set err None (Some e))
    in
    let domains = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join domains;
    (match Atomic.get err with Some e -> raise e | None -> ());
    Array.map
      (function Some y -> y | None -> invalid_arg "Par.map_array: missing result")
      results
  end

let map ?jobs f l = Array.to_list (map_array ?jobs f (Array.of_list l))
