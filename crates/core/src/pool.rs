//! The crate's one worker pool. Both sweeps run on it: the campaign's
//! scenarios ([`crate::campaign`]) and the lifetime run's replicas
//! ([`crate::lifetime`]). Items are independent and their outputs come
//! back in item order, so each sweep sees its serial sequence whatever
//! the worker count.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `run` over `items` on up to `workers` scoped threads and hands
/// each output to `absorb` strictly in item order, so the caller sees the
/// serial sequence whatever the worker count. With one worker, or at
/// most one item, every item runs on the calling thread and no thread is
/// started. Otherwise each worker runs on its own clone of `state` and
/// claims the next index from a shared counter; an output that finishes
/// ahead of its turn waits in a buffer. Once `absorb` breaks or fails,
/// no further index is claimed and buffered outputs are dropped. A panic
/// in `run` stops the claiming and resumes on the calling thread, so no
/// shortened sequence is ever returned.
pub(crate) fn run_in_order<W, T, R, E>(
    workers: usize,
    state: &W,
    items: &[T],
    run: impl Fn(&W, &T) -> R + Sync,
    mut absorb: impl FnMut(R) -> Result<ControlFlow<()>, E>,
) -> Result<ControlFlow<()>, E>
where
    W: Clone + Send,
    T: Sync,
    R: Send,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for item in items {
            if absorb(run(state, item))?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        return Ok(ControlFlow::Continue(()));
    }

    // The counter and the flag publish no data: items are shared
    // read-only from before the spawn and outputs travel through the
    // channel, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, state, run, next, stop) = (tx.clone(), state.clone(), &run, &next, &stop);
                scope.spawn(move || {
                    let claimed = panic::catch_unwind(AssertUnwindSafe(|| {
                        while !stop.load(Ordering::Relaxed) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            if tx.send((i, run(&state, item))).is_err() {
                                break;
                            }
                        }
                    }));
                    if let Err(payload) = claimed {
                        stop.store(true, Ordering::Relaxed);
                        panic::resume_unwind(payload);
                    }
                })
            })
            .collect();
        drop(tx);

        let mut flow = Ok(ControlFlow::Continue(()));
        let mut pending = BTreeMap::new();
        let mut absorbed = 0;
        'receive: for (i, output) in &rx {
            pending.insert(i, output);
            while let Some(output) = pending.remove(&absorbed) {
                absorbed += 1;
                flow = absorb(output);
                if !matches!(flow, Ok(ControlFlow::Continue(()))) {
                    break 'receive;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        drop(rx);
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic::resume_unwind(payload);
            }
        }
        if matches!(flow, Ok(ControlFlow::Continue(()))) {
            assert_eq!(absorbed, items.len(), "every worker exited before the last output");
        }
        flow
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..5).collect();
        let mut absorbed = Vec::new();
        let flow = run_in_order(
            1,
            &(),
            &items,
            |(), &i| (i, std::thread::current().id()),
            |(i, thread)| {
                assert_eq!(thread, caller, "item {i} ran on another thread");
                absorbed.push(i);
                Ok::<_, ()>(ControlFlow::Continue(()))
            },
        );
        assert_eq!(flow, Ok(ControlFlow::Continue(())));
        assert_eq!(absorbed, items);
    }

    #[test]
    fn outputs_finished_out_of_order_are_absorbed_in_item_order() {
        // Item 0 cannot finish before the last item has: every other item
        // completes first, on the other workers.
        let items: Vec<usize> = (0..12).collect();
        for workers in [2, 3, 7] {
            let last_done = std::sync::Barrier::new(2);
            let mut absorbed = Vec::new();
            let flow = run_in_order(
                workers,
                &(),
                &items,
                |(), &i| {
                    if i == 0 || i == items.len() - 1 {
                        last_done.wait();
                    }
                    i
                },
                |i| {
                    absorbed.push(i);
                    Ok::<_, ()>(ControlFlow::Continue(()))
                },
            );
            assert_eq!(flow, Ok(ControlFlow::Continue(())));
            assert_eq!(absorbed, items, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller_at_every_worker_count() {
        let items: Vec<usize> = (0..24).collect();
        for workers in [1, 2, 3, 7] {
            let mut absorbed = Vec::new();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_in_order(
                    workers,
                    &(),
                    &items,
                    |(), &i| {
                        assert_ne!(i, 9, "item 9 fails");
                        i
                    },
                    |i| {
                        absorbed.push(i);
                        Ok::<_, ()>(ControlFlow::Continue(()))
                    },
                )
            }));
            let payload = result.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("item 9 fails"), "{workers} workers: {message}");
            assert_eq!(absorbed, (0..9).collect::<Vec<_>>(), "{workers} workers");
        }
    }
}
