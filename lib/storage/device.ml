type stats = {
  elapsed : float;
  seeks : int;
  blocks_read : int;
  blocks_written : int;
}

(* The clock is an all-float record, so it holds its float unboxed and
   accounting a request allocates nothing. *)
type clock = { mutable seconds : float }

type t = {
  disk : Vp_cost.Disk.t;
  clock : clock;
  mutable seeks : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
}

let create disk =
  { disk; clock = { seconds = 0.0 }; seeks = 0; blocks_read = 0; blocks_written = 0 }

let profile t = t.disk

(* Every transfer is one buffered request and pays one average seek — the
   paper's model assumption ("we have to perform a seek every time the I/O
   buffer for partition i needs to be filled"): between two refills of the
   same stream the arm has served other streams or queries. *)
let transfer t ~file:_ ~first_block:_ ~count ~bandwidth =
  if count < 0 then invalid_arg "Device: negative block count";
  if count > 0 then begin
    t.seeks <- t.seeks + 1;
    t.clock.seconds <- t.clock.seconds +. t.disk.seek_time;
    t.clock.seconds <-
      t.clock.seconds
      +. (float_of_int (count * t.disk.block_size) /. bandwidth)
  end

let read t ~file ~first_block ~count =
  transfer t ~file ~first_block ~count ~bandwidth:t.disk.read_bandwidth;
  t.blocks_read <- t.blocks_read + count

let write t ~file ~first_block ~count =
  transfer t ~file ~first_block ~count ~bandwidth:t.disk.write_bandwidth;
  t.blocks_written <- t.blocks_written + count

let stats t =
  {
    elapsed = t.clock.seconds;
    seeks = t.seeks;
    blocks_read = t.blocks_read;
    blocks_written = t.blocks_written;
  }

let reset t =
  t.clock.seconds <- 0.0;
  t.seeks <- 0;
  t.blocks_read <- 0;
  t.blocks_written <- 0
