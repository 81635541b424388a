type event =
  | Alloc of { id : int; size : int; cpu : int }
  | Free of { id : int; cpu : int }
  | Advance of { dt_ns : float }
  | Retire of { cpu : int; flush : bool }

let line_of_event = function
  | Alloc { id; size; cpu } -> Printf.sprintf "a %d %d %d" id size cpu
  | Free { id; cpu } -> Printf.sprintf "f %d %d" id cpu
  | Advance { dt_ns } -> Printf.sprintf "t %.17g" dt_ns
  | Retire { cpu; flush } -> Printf.sprintf "r %d %d" cpu (if flush then 1 else 0)
