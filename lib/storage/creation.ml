open Vp_core

type result = {
  io : Device.stats;
  source_blocks : int;
  written_blocks : int;
}

(* The transform is pure accounting: only block counts enter the request
   replay, so the row-layout source and every target are built as
   virtual (accounting-only) files — with the Plain codec their geometry
   is value-independent, which is what makes an SF100-class transform
   O(partitions) instead of O(rows). Block counts are identical to the
   materialized build's (property-tested), hence so is every device
   request below. *)
let transform ~disk table source partitioning =
  if Table.name (Vp_stream.Source.table source) <> Table.name table then
    invalid_arg "Creation.transform: source table mismatch";
  let n = Table.attribute_count table in
  let build_virtual group =
    Pfile.build_stream ~block_size:disk.Vp_cost.Disk.block_size
      ~codec_kind:Codec.Plain ~retain:false table ~group source
  in
  let source_file = build_virtual (Attr_set.full n) in
  let targets = List.map build_virtual (Partitioning.groups partitioning) in
  let device = Device.create disk in
  (* Buffer shares proportional to row sizes; the read stream participates
     at the full row size (mirrors Io_model.creation_time). *)
  let row_s = Table.row_size table in
  let total_s =
    row_s
    + List.fold_left
        (fun acc f -> acc + Table.subset_size table (Pfile.group f))
        0 targets
  in
  (* Issue one stream's requests, each [(first, count)] as it is
     generated, so the schedule needs no storage however many requests
     it has. *)
  let stream_requests ~row_size ~blocks issue =
    if blocks > 0 then begin
      let share = disk.Vp_cost.Disk.buffer_size * row_size / total_s in
      let per_request = max 1 (share / disk.Vp_cost.Disk.block_size) in
      let rec go first =
        if first < blocks then begin
          let count = min per_request (blocks - first) in
          issue first count;
          go (first + count)
        end
      in
      go 0
    end
  in
  (* Issue the read refills of the source and the write flushes of every
     target; with the per-request seek rule the interleaving order does not
     change the accounted time. *)
  stream_requests ~row_size:row_s ~blocks:(Pfile.block_count source_file)
    (fun first count -> Device.read device ~file:0 ~first_block:first ~count);
  List.iteri
    (fun i f ->
      stream_requests
        ~row_size:(Table.subset_size table (Pfile.group f))
        ~blocks:(Pfile.block_count f)
        (fun first count ->
          Device.write device ~file:(i + 1) ~first_block:first ~count))
    targets;
  {
    io = Device.stats device;
    source_blocks = Pfile.block_count source_file;
    written_blocks =
      List.fold_left (fun acc f -> acc + Pfile.block_count f) 0 targets;
  }
