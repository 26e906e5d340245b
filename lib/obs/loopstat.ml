type t = {
  threshold : float;
  mutable iterations : int;
  mutable ready_fds : int;
  mutable wait_time : float;
  mutable work_time : float;
  mutable timer_fires : int;
  mutable stalls : int;
  mutable max_stall : float;
}

let create ~threshold () =
  if not (threshold > 0.) then invalid_arg "Obs.Loopstat.create: threshold <= 0";
  {
    threshold;
    iterations = 0;
    ready_fds = 0;
    wait_time = 0.;
    work_time = 0.;
    timer_fires = 0;
    stalls = 0;
    max_stall = 0.;
  }

let timers_fired t n = t.timer_fires <- t.timer_fires + n

let iteration t ~waited ~worked ~ready =
  let worked = Float.max 0. worked in
  t.iterations <- t.iterations + 1;
  t.ready_fds <- t.ready_fds + ready;
  t.wait_time <- t.wait_time +. Float.max 0. waited;
  t.work_time <- t.work_time +. worked;
  if worked > t.max_stall then t.max_stall <- worked;
  if worked > t.threshold then t.stalls <- t.stalls + 1

let threshold t = t.threshold
let iterations t = t.iterations
let ready_fds t = t.ready_fds
let wait_time t = t.wait_time
let work_time t = t.work_time
let timer_fires t = t.timer_fires
let stalls t = t.stalls
let max_stall t = t.max_stall
