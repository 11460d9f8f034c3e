open Vp_core

type search = {
  child : int -> int -> float;
  descend : int -> int -> unit;
  ascend : int -> int -> unit;
}

(* Rows are flat [row * nq + query] int arrays, all allocated when the
   bound is applied to the atoms. Subset sizes are additive over
   disjoint sets, so a block's bytes outside a query are the sum of its
   atoms', and every seek and byte count is an exact integer update of
   the parent's; the float formula then runs per query in workload
   order, so a child's bound is bit for bit the bound of its blocks
   computed from scratch. *)
let per_query_bound ~seek_unit ~byte_rate workload =
  let table = Workload.table workload in
  let rows = float_of_int (Table.row_count table) in
  let queries = Workload.queries workload in
  let nq = Array.length queries in
  let refs = Array.map Query.references queries in
  let weights = Array.map Query.weight queries in
  let needed =
    Array.map (fun r -> float_of_int (Table.subset_size table r)) refs
  in
  fun atoms ->
    let m = Array.length atoms in
    let row () = Array.make (max 1 (m * nq)) 0 in
    (* Per atom: 1 when it meets the query, and its bytes outside it. *)
    let atom_meets = row () and atom_out = row () in
    Array.iteri
      (fun i a ->
        for q = 0 to nq - 1 do
          if Attr_set.intersects a refs.(q) then atom_meets.((i * nq) + q) <- 1;
          atom_out.((i * nq) + q) <-
            Table.subset_size table (Attr_set.diff a refs.(q))
        done)
      atoms;
    (* Per block: how many of its atoms meet the query, and its bytes
       outside it. Per depth: seeks and co-located bytes of the blocks
       formed by atoms [0, depth). *)
    let block_meets = row () and block_out = row () in
    let seeks = Array.make ((m + 1) * nq) 0
    and colocated = Array.make ((m + 1) * nq) 0 in
    (* Fills depth row [i + 1] for atom [i] joining block [j]: a block
       already meeting a query gains the atom's outside bytes; one the
       atom makes meet it costs a seek and brings its own outside bytes
       too. Atom [i]'s row and depth [i]'s row both start at [i * nq]. *)
    let place i j =
      let r = i * nq and b = j * nq in
      for q = 0 to nq - 1 do
        let s = ref seeks.(r + q) and c = ref colocated.(r + q) in
        if block_meets.(b + q) > 0 then c := !c + atom_out.(r + q)
        else if atom_meets.(r + q) = 1 then begin
          incr s;
          c := !c + block_out.(b + q) + atom_out.(r + q)
        end;
        seeks.(r + nq + q) <- !s;
        colocated.(r + nq + q) <- !c
      done
    in
    let child i j =
      place i j;
      let d = (i + 1) * nq in
      let acc = ref 0.0 in
      for q = 0 to nq - 1 do
        let bytes = rows *. (needed.(q) +. float_of_int colocated.(d + q)) in
        let seek = seek_unit *. float_of_int seeks.(d + q) in
        acc := !acc +. (weights.(q) *. (seek +. (bytes /. byte_rate)))
      done;
      !acc
    in
    let shift sign i j =
      let a = i * nq and b = j * nq in
      for q = 0 to nq - 1 do
        block_meets.(b + q) <-
          block_meets.(b + q) + (sign * atom_meets.(a + q));
        block_out.(b + q) <- block_out.(b + q) + (sign * atom_out.(a + q))
      done
    in
    {
      child;
      descend =
        (fun i j ->
          place i j;
          shift 1 i j);
      ascend = shift (-1);
    }

let io_brute_force (disk : Disk.t) workload =
  per_query_bound ~seek_unit:disk.seek_time ~byte_rate:disk.read_bandwidth
    workload

let memory_brute_force (m : Memory_model.t) workload =
  per_query_bound ~seek_unit:0.0 ~byte_rate:m.bandwidth workload
