open Vp_core

type t = {
  table : Table.t;
  partitioning : Partitioning.t;
  disk : Vp_cost.Disk.t;
  files : Pfile.t array;
  load : Device.stats;
  device : Device.t;
}

let build ?device ?(retain = true) ~disk ~codec ?formats table source
    partitioning =
  if Table.name (Vp_stream.Source.table source) <> Table.name table then
    invalid_arg "Database.build: source table mismatch";
  let device = match device with Some d -> d | None -> Device.create disk in
  let before = Device.stats device in
  let groups = Partitioning.groups partitioning in
  let kinds =
    match formats with
    | None -> List.map (fun _ -> codec) groups
    | Some kinds ->
        if List.length kinds <> List.length groups then
          invalid_arg "Database.build: one format per group required";
        kinds
  in
  let rows = Vp_stream.Source.row_count source in
  (* Pass 1 (only when some group is dictionary-coded): train codecs. *)
  let codecs = Pfile.train table source groups kinds in
  (* Pass 2: one streaming pass feeds every builder that needs rows. *)
  let builders =
    List.map2
      (fun group codec ->
        Pfile.builder ~block_size:disk.Vp_cost.Disk.block_size ~codec ~retain
          ~rows table ~group)
      groups codecs
  in
  if List.exists Pfile.needs_rows builders then
    Vp_stream.Source.iter source (fun ~first_row:_ chunk ->
        List.iter (fun b -> Pfile.feed b chunk) builders)
  else List.iter (fun b -> Pfile.feed b [||]) builders;
  let files =
    Array.of_list
      (List.mapi
         (fun i b ->
           let f = Pfile.finish b in
           Device.write device ~file:i ~first_block:0
             ~count:(Pfile.block_count f);
           f)
         builders)
  in
  let after = Device.stats device in
  let load =
    {
      Device.elapsed = after.elapsed -. before.elapsed;
      seeks = after.seeks - before.seeks;
      blocks_read = after.blocks_read - before.blocks_read;
      blocks_written = after.blocks_written - before.blocks_written;
    }
  in
  { table; partitioning; disk; files; load; device }

let table db = db.table

let partitioning db = db.partitioning

let pfiles db = Array.to_list db.files

let load_stats db = db.load

let device db = db.device

let bytes_on_disk db =
  Array.fold_left (fun acc f -> acc + Pfile.bytes_on_disk f) 0 db.files

type query_result = {
  rows_out : int;
  io : Device.stats;
  cpu_seconds : float;
  partitions_read : int;
  values_decoded : int;
  checksum : int;
}

let join_ns_per_tuple = 5.0

(* One scan stream over a partition file with a bounded sub-buffer. *)
type stream = {
  file_id : int;
  pfile : Pfile.t;
  sub_buffer_blocks : int;
  refs_in_group : int array;  (** positions within the group's column order
                                  that the query projects *)
  in_group : bool;  (** group has attributes beyond the projected ones or
                        more than one column (stride decoding) *)
  mutable window_end : int;  (** first row past the buffered window *)
  mutable next_block : int;
}

let make_streams db refs =
  let streams =
    Array.to_list db.files
    |> List.mapi (fun i f -> (i, f))
    |> List.filter (fun (_, f) -> Attr_set.intersects (Pfile.group f) refs)
  in
  let total_width =
    List.fold_left
      (fun acc (_, f) -> acc +. Codec.avg_row_width (Pfile.codec f))
      0.0 streams
  in
  let make_stream (i, f) =
    let width = Codec.avg_row_width (Pfile.codec f) in
    let share =
      if total_width <= 0.0 then db.disk.Vp_cost.Disk.buffer_size
      else
        int_of_float
          (float_of_int db.disk.Vp_cost.Disk.buffer_size *. width /. total_width)
    in
    let sub_buffer_blocks = max 1 (share / db.disk.Vp_cost.Disk.block_size) in
    let group_positions = Attr_set.to_list (Pfile.group f) in
    let refs_in_group =
      List.filteri (fun _ p -> Attr_set.mem p refs) group_positions
      |> List.map (fun p ->
             let rec index k = function
               | [] -> assert false
               | q :: _ when q = p -> k
               | _ :: rest -> index (k + 1) rest
             in
             index 0 group_positions)
      |> Array.of_list
    in
    {
      file_id = i;
      pfile = f;
      sub_buffer_blocks;
      refs_in_group;
      in_group = List.length group_positions > 1;
      window_end = 0;
      next_block = 0;
    }
  in
  List.map make_stream streams

(* Rows covered by a refill window starting at [from_row] and ending at
   block [last_block]: everything strictly before the first row of the
   next window. *)
let window_rows pfile ~from_row ~last_block =
  if last_block + 1 >= Pfile.block_count pfile then
    Pfile.row_count pfile - from_row
  else Pfile.first_row_of_block pfile (last_block + 1) - from_row

(* The materialized executor. Tuple-by-tuple reconstruction lives in the
   accounting: row rank by row rank, every stream whose window is
   exhausted refills (streams in partition order) and each tuple pays
   the join CPU — the same float order as decoding rows would give. The
   checksum is a commutative sum, so each refill digests its window's
   projected values straight from the block bytes instead of building
   rows. *)
let run_query_materialized db streams rows =
  let device = Device.create db.disk in
  let cpu_ns = ref 0.0 in
  let values_decoded = ref 0 in
  let checksum = ref 0 in
  let streams = Array.of_list streams in
  let projections =
    Array.map
      (fun s -> Codec.project (Pfile.codec s.pfile) s.refs_in_group)
      streams
  in
  (* Refill a stream's sub-buffer: read the next window of blocks, which
     covers the rows from [from_row], account their decode and digest
     them. *)
  let refill i s ~from_row =
    let total_blocks = Pfile.block_count s.pfile in
    if s.next_block < total_blocks then begin
      let count = min s.sub_buffer_blocks (total_blocks - s.next_block) in
      Device.read device ~file:s.file_id ~first_block:s.next_block ~count;
      let last_block = s.next_block + count - 1 in
      let rows_covered = window_rows s.pfile ~from_row ~last_block in
      s.window_end <- from_row + rows_covered;
      s.next_block <- s.next_block + count;
      (* decode CPU for everything buffered *)
      let cols = Array.length s.refs_in_group in
      let kind = Codec.kind (Pfile.codec s.pfile) in
      let per_value = Codec.decode_ns_per_value kind ~in_group:s.in_group in
      cpu_ns := !cpu_ns +. (per_value *. float_of_int (rows_covered * cols));
      values_decoded := !values_decoded + (rows_covered * cols);
      checksum :=
        !checksum
        + Pfile.digest_rows s.pfile projections.(i) ~first_row:from_row
            ~count:rows_covered
    end
  in
  let partitions_read = Array.length streams in
  (* the first row at which some stream refills *)
  let next_refill = ref 0 in
  for r = 0 to rows - 1 do
    if r >= !next_refill then begin
      Array.iteri (fun i s -> if r >= s.window_end then refill i s ~from_row:r)
        streams;
      next_refill :=
        Array.fold_left (fun acc s -> min acc s.window_end) max_int streams
    end;
    if partitions_read > 1 then
      cpu_ns := !cpu_ns +. (join_ns_per_tuple *. float_of_int (partitions_read - 1))
  done;
  {
    rows_out = rows;
    io = Device.stats device;
    cpu_seconds = !cpu_ns *. 1e-9;
    partitions_read;
    values_decoded = !values_decoded;
    checksum = !checksum;
  }

(* The accounting-only executor for virtual files: replays the exact
   refill sequence the materialized loop would issue — at row [r] every
   stream whose window is exhausted refills, streams in partition order —
   without touching values, so the device stats (request order included,
   hence every float accumulation) are bit-identical to the materialized
   path (property-tested). Decode CPU follows the same refill order;
   tuple-reconstruction CPU is added as one closed-form term, so
   [cpu_seconds] is the same sum in a different float order. The
   checksum of values that were never produced is 0. *)
let run_query_virtual db streams rows =
  let device = Device.create db.disk in
  let cpu_ns = ref 0.0 in
  let values_decoded = ref 0 in
  let streams = Array.of_list streams in
  (* next refill row per stream: the materialized loop refills exactly
     when r reaches the end of the buffered window. *)
  let next_row = Array.map (fun _ -> 0) streams in
  let finished = Array.map (fun s -> Pfile.block_count s.pfile = 0) streams in
  let remaining = ref 0 in
  Array.iter (fun f -> if not f then incr remaining) finished;
  while !remaining > 0 do
    (* earliest refill row; ties resolved in stream (partition) order by
       the stable minimum scan. *)
    let r = ref max_int in
    Array.iteri
      (fun i f -> if not f && next_row.(i) < !r then r := next_row.(i))
      finished;
    Array.iteri
      (fun i s ->
        if (not finished.(i)) && next_row.(i) = !r then begin
          let total_blocks = Pfile.block_count s.pfile in
          let count = min s.sub_buffer_blocks (total_blocks - s.next_block) in
          Device.read device ~file:s.file_id ~first_block:s.next_block ~count;
          let last_block = s.next_block + count - 1 in
          let rows_covered = window_rows s.pfile ~from_row:!r ~last_block in
          s.next_block <- s.next_block + count;
          let cols = Array.length s.refs_in_group in
          let kind = Codec.kind (Pfile.codec s.pfile) in
          let per_value = Codec.decode_ns_per_value kind ~in_group:s.in_group in
          cpu_ns := !cpu_ns +. (per_value *. float_of_int (rows_covered * cols));
          values_decoded := !values_decoded + (rows_covered * cols);
          if s.next_block >= total_blocks then begin
            finished.(i) <- true;
            decr remaining
          end
          else next_row.(i) <- !r + rows_covered
        end)
      streams
  done;
  let partitions_read = Array.length streams in
  if partitions_read > 1 then
    cpu_ns :=
      !cpu_ns
      +. join_ns_per_tuple
         *. float_of_int (partitions_read - 1)
         *. float_of_int rows;
  {
    rows_out = rows;
    io = Device.stats device;
    cpu_seconds = !cpu_ns *. 1e-9;
    partitions_read;
    values_decoded = !values_decoded;
    checksum = 0;
  }

let run_query db query =
  let refs = Query.references query in
  let rows = Table.row_count db.table in
  let streams = make_streams db refs in
  if List.exists (fun s -> Pfile.is_virtual s.pfile) streams then
    run_query_virtual db streams rows
  else run_query_materialized db streams rows

let run_workload db workload =
  (* Polls the ambient budget between queries (one tick per query), so a
     deadlined experiment stops between simulations instead of running the
     remaining queries to completion; the already-simulated prefix still
     contributes to the total. *)
  let budget = Vp_robust.Budget.current () in
  let results =
    Array.to_list (Workload.queries workload)
    |> List.filter_map (fun q ->
           if Vp_robust.Budget.try_tick budget then Some (q, run_query db q)
           else None)
  in
  let total =
    List.fold_left
      (fun acc (q, r) ->
        acc +. (Query.weight q *. (r.io.Device.elapsed +. r.cpu_seconds)))
      0.0 results
  in
  (List.map snd results, total)
