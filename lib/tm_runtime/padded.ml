(* Striped atomic int arrays: best-effort cache-line separation for
   per-thread words that different domains write.

   OCaml 5.1 has no [Atomic.make_contended], and an [int Atomic.t
   array] made with [Array.init] places its boxed atomics
   consecutively on the heap, so the words of different threads would
   share cache lines and false-share.  The cure is striping: allocate
   [stride] atomics per logical slot, in one allocation pass so they
   are laid out consecutively, and use only every stride-th one.  At
   a stride of 8 (each atomic is a 2-word block, ~16 bytes)
   neighbouring live slots start ~128 bytes apart — a cache line plus
   the adjacent line the prefetcher drags in.

   Best-effort: the compacting GC may move blocks, but minor-heap
   allocation order survives promotion, and these arrays are allocated
   once at TM creation and live for the TM's lifetime. *)

type t = int Atomic.t array

let stride = 8
let make n = Array.init (n * stride) (fun _ -> Atomic.make 0)
let get t i = Atomic.get t.(i * stride)
let incr t i = Atomic.incr t.(i * stride)
