(** Derived atomic-block combinators over any TM implementation: the
    [l := atomic {C}] construct of §2.1, as a single attempt (matching
    the language, where the result may be [aborted]) and as a
    retry-until-commit loop (the idiom real workloads use). *)

type 'a attempt = Committed of 'a | Aborted

module Make_sched (S : Sched_intf.S) (T : Tm_intf.S) : sig
  val attempt : T.t -> thread:int -> (T.txn -> 'a) -> 'a attempt
  (** Run the block as one transaction; return [Aborted] if the TM
      aborts at any point (including commit). *)

  val run : ?max_retries:int -> T.t -> thread:int -> (T.txn -> 'a) -> 'a * int
  (** Retry until commit; returns the result and the number of aborted
      attempts.  Raises [Failure] after [max_retries] (default
      unlimited) consecutive aborts.  Between attempts the thread backs
      off through [S.backoff]: randomized exponential backoff of at most
      1024 [cpu_relax] steps in production, seeded from [thread] so it
      is deterministic; one scheduling point under the deterministic
      scheduler. *)
end

module Make (T : Tm_intf.S) : sig
  val attempt : T.t -> thread:int -> (T.txn -> 'a) -> 'a attempt
  val run : ?max_retries:int -> T.t -> thread:int -> (T.txn -> 'a) -> 'a * int
end
(** {!Make_sched} over the production {!Sched_intf.Os} hooks. *)
