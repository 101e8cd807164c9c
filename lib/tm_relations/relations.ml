open Tm_model

type t = {
  info : History.info;
  registers : Types.reg list;
  next_txbegin : int array Lazy.t;
  writer : int array;
  hb : Rel.t;
}

let registers_of (h : History.t) =
  let module S = Set.Make (Int) in
  Array.fold_left
    (fun acc a ->
      match Action.accessed_reg a with Some x -> S.add x acc | None -> acc)
    S.empty h
  |> S.elements

(* For every action index [i], the smallest index > i of a txbegin
   request by the same thread, or max_int. *)
let next_own_txbegin (h : History.t) =
  let n = History.length h in
  let next = Array.make n max_int in
  let last_seen = Array.make (History.threads_of h) max_int in
  for i = n - 1 downto 0 do
    let a = History.get h i in
    next.(i) <- last_seen.(a.Action.thread);
    if Action.equal_kind a.Action.kind (Action.Request Action.Txbegin) then
      last_seen.(a.Action.thread) <- i
  done;
  next

(* Read dependencies: with unique written values, each read response
   [ret(v)] (v ≠ vinit) has at most one writer, a write request to the
   register the read requested. *)
let writers (info : History.info) =
  let h = info.History.history in
  let n = History.length h in
  let writer_of_value = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    match Action.written_value (History.get h i) with
    | Some v -> Hashtbl.replace writer_of_value v i
    | None -> ()
  done;
  Array.init n (fun j ->
      match ((History.get h j).Action.kind, info.History.request_of.(j)) with
      | Action.Response (Action.Ret v), Some req when v <> Types.v_init -> (
          match
            ((History.get h req).Action.kind, Hashtbl.find_opt writer_of_value v)
          with
          | Action.Request (Action.Read x), Some i
            when Action.accessed_reg (History.get h i) = Some x ->
              i
          | _ -> -1)
      | _ -> -1)

let kind_is h i k = Action.equal_kind (History.get h i).Action.kind k

(* hb is the closure of sparse generators with the same closure as
   po ∪ cl ∪ af ∪ bf ∪ xpo;txwr:
   - po and cl as chains (each action to the next of its thread; each
     non-transactional action to the next one);
   - af from each fbegin to the txbegins after it, but only those with
     no earlier txbegin of their thread after the fbegin (po carries the
     edge on);
   - bf likewise from each completion to the first later fend per
     thread;
   - xpo;txwr from the last action of the writer's thread before the
     writer's txbegin (po carries every earlier one) to the read. *)
let happens_before (info : History.info) writer =
  let h = info.History.history in
  let n = History.length h in
  let hb = Rel.create n in
  let nthreads = History.threads_of h in
  let last = Array.make nthreads (-1) in
  let last_nontxn = ref (-1) in
  let txn_of = info.History.txn_of in
  (* index of each transaction's txbegin's predecessor in its thread,
     or -1 *)
  let before_txn = Array.make (Array.length info.History.txns) (-1) in
  (* fbegins and completions seen so far, latest first *)
  let fbegins = ref [] and completions = ref [] in
  let last_txbegin = Array.make nthreads (-1) in
  let last_fend = Array.make nthreads (-1) in
  let rec edges_from_after bound j = function
    | i :: rest when i > bound ->
        Rel.add hb i j;
        edges_from_after bound j rest
    | _ -> ()
  in
  for j = 0 to n - 1 do
    let a = History.get h j in
    let t = a.Action.thread in
    if last.(t) >= 0 then Rel.add hb last.(t) j;
    if txn_of.(j) = -1 then begin
      if !last_nontxn >= 0 then Rel.add hb !last_nontxn j;
      last_nontxn := j
    end;
    (match a.Action.kind with
    | Action.Request Action.Txbegin ->
        before_txn.(txn_of.(j)) <- last.(t);
        edges_from_after last_txbegin.(t) j !fbegins;
        last_txbegin.(t) <- j
    | Action.Request Action.Fbegin -> fbegins := j :: !fbegins
    | Action.Response Action.Fend ->
        edges_from_after last_fend.(t) j !completions;
        last_fend.(t) <- j
    | _ -> ());
    if Action.is_completion a then completions := j :: !completions;
    last.(t) <- j
  done;
  for j = 0 to n - 1 do
    let w = writer.(j) in
    if w >= 0 && txn_of.(w) >= 0 && txn_of.(j) >= 0 then begin
      let p = before_txn.(txn_of.(w)) in
      if p >= 0 then Rel.add hb p j
    end
  done;
  Rel.close_into hb;
  hb

let compute (info : History.info) : t =
  let h = info.History.history in
  let writer = writers info in
  {
    info;
    registers = registers_of h;
    next_txbegin = lazy (next_own_txbegin h);
    writer;
    hb = happens_before info writer;
  }

let of_history h = compute (History.analyze h)

let history t = t.info.History.history
let thread t i = (History.get (history t) i).Action.thread
let is_nontxn t i = t.info.History.txn_of.(i) = -1
let po t i j = i < j && thread t i = thread t j
let xpo t i j = po t i j && (Lazy.force t.next_txbegin).(i) < j
let cl t i j = i < j && is_nontxn t i && is_nontxn t j

let af t i j =
  i < j
  && kind_is (history t) i (Action.Request Action.Fbegin)
  && kind_is (history t) j (Action.Request Action.Txbegin)

let completion_before t i j =
  i < j && Action.is_completion (History.get (history t) i)

let bf t i j =
  completion_before t i j && kind_is (history t) j (Action.Response Action.Fend)

let rt t i j =
  completion_before t i j
  && kind_is (history t) j (Action.Request Action.Txbegin)

let writer t j = t.writer.(j)
let wr t i j = i >= 0 && t.writer.(j) = i
let txwr t i j = wr t i j && (not (is_nontxn t i)) && not (is_nontxn t j)
let registers t = t.registers
let hb_between t i j = Rel.mem t.hb i j
