(** Fault-tolerant execution of a set of experiment cells.

    Where [Vp_parallel.Pool.run] assumes every task succeeds, a sweep
    expects trouble and degrades instead of aborting: each cell runs under
    its own {!Vp_robust.Budget}, a crashing or timed-out cell becomes an
    annotated entry in the report rather than a lost run, and completed
    cells are checkpointed to a {!Vp_robust.Journal} so a resumed sweep
    re-renders them without recomputation — byte-identically, since cell
    outputs are deterministic. *)

type status =
  | Done
  | Timeout  (** The cell's budget ran out; [output] is the degraded
                 (best-so-far) report. *)
  | Error of string  (** The cell raised; the message is the exception. *)

type cell = {
  id : string;
  description : string;
  output : string;  (** [""] when the cell errored. *)
  status : status;
  elapsed_seconds : float;  (** 0 for journal-resumed cells. *)
  resumed : bool;  (** Replayed from the journal, not recomputed. *)
}

val run :
  ?jobs:int ->
  ?timeout_seconds:float ->
  ?budget_steps:int ->
  ?journal_path:string ->
  ?fault:Vp_robust.Fault.t ->
  Registry.experiment list ->
  cell list
(** Runs every experiment not already recorded in the journal and returns
    one cell per experiment, in catalogue order.

    [timeout_seconds]/[budget_steps] bound {e each cell} (a fresh budget
    per cell; with neither, cells run unbudgeted and behave exactly as
    under [Pool.run]). [journal_path] enables checkpointing: finished
    cells (Done and Timeout, not Error) are appended as they complete,
    and cells already present are replayed with [resumed = true].
    [fault] (default {!Vp_robust.Fault.disabled}) is installed as the
    ambient plan around the whole batch, so it reaches both the pool task
    boundary and every cost-oracle call inside the cells. [jobs] as in
    [Vp_parallel.Pool]. *)

val report : cell list -> string
(** The concatenated sweep report: every cell under a
    [Common.heading] — annotated [[TIMEOUT]]/[[ERROR]] when degraded —
    in cell order. Deterministic for deterministic cell outputs (no
    timings), so a resumed sweep renders byte-identically. *)

val errors : cell list -> cell list
(** The cells that ended in [Error] (timeouts are not errors). *)
