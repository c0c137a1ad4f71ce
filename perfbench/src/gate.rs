//! The correctness gate every server run passes through.

use tcp_server::server::ServeReport;

/// Violations of the serving invariants in `r`, a run that issued
/// `issued` requests: the quiesced heap must hold exactly the admitted
/// increments (every write is a commutative `+1`), no reply may be
/// misdelivered, and every issued request must either commit or be shed.
pub fn check_serve(r: &ServeReport, issued: u64) -> Vec<String> {
    let mut errors = Vec::new();
    if r.state_sum != r.increments_applied {
        errors.push(format!(
            "heap sums to {} but {} increments were admitted",
            r.state_sum, r.increments_applied
        ));
    }
    if r.reply_faults != 0 {
        errors.push(format!("{} replies were misdelivered", r.reply_faults));
    }
    let (commits, sheds) = (r.stats.commits(), r.stats.sheds());
    if commits + sheds != issued {
        errors.push(format!(
            "{commits} commits + {sheds} sheds do not account for {issued} requests"
        ));
    }
    errors
}

/// Requests of a run that a user saw fail: shed for any cause, never
/// answered, or answered through a misdelivered reply.
pub fn failed_requests(r: &ServeReport, issued: u64) -> u64 {
    let answered = r.stats.commits() + r.stats.sheds();
    r.stats.sheds() + issued.saturating_sub(answered) + r.reply_faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::randomized::RandRw;
    use tcp_server::config::ServeConfig;
    use tcp_server::server::run_server;

    fn small_run() -> (ServeReport, u64) {
        let cfg = ServeConfig {
            shards: 2,
            clients: 2,
            ops_per_client: 200,
            keys: 64,
            think_ns: 0,
            queue_capacity: 1024,
            ..Default::default()
        };
        (run_server(&cfg, RandRw), cfg.total_requests())
    }

    #[test]
    fn a_healthy_run_passes() {
        let (r, issued) = small_run();
        assert_eq!(check_serve(&r, issued), Vec::<String>::new());
        assert_eq!(failed_requests(&r, issued), r.stats.sheds());
    }

    #[test]
    fn the_gate_fires_on_a_doctored_report() {
        let (r, issued) = small_run();

        let mut lost_write = r.clone();
        lost_write.state_sum += 1;
        assert_eq!(check_serve(&lost_write, issued).len(), 1);

        let mut misdelivered = r.clone();
        misdelivered.reply_faults = 2;
        assert_eq!(check_serve(&misdelivered, issued).len(), 1);
        assert_eq!(failed_requests(&misdelivered, issued), r.stats.sheds() + 2);

        // One request neither committed nor shed.
        assert_eq!(check_serve(&r, issued + 1).len(), 1);
        assert_eq!(failed_requests(&r, issued + 1), r.stats.sheds() + 1);
    }
}
