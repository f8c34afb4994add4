//! The executor: `execute_next_op` hands the next [`TxnOp`] of a
//! transaction to one of four `exec_*` bodies, which walk it through
//! buffer pool, cluster manager and log by way of the `charge_*` helpers
//! — or return the typed error that aborts the transaction. It names no
//! time: what each step costs is `charge.rs`'s operation clock.

use super::Engine;
use crate::error::EngineError;
use semcluster_clustering::{
    consider_split, execute_placement, execute_split, plan_placement_in, plan_recluster_in,
    ClusteringPolicy, ExaminedCandidate, PlacementTarget, SplitPolicy,
};
use semcluster_obs::{
    milli, AuditKind, CandidateAudit, FlushCause, Phase, PhaseToken, PlacementAudit, ReadCause,
    SplitVerdict, TraceEvent,
};
use semcluster_storage::WalOp;
use semcluster_vdm::{derive_version, CopyVsRefModel, NameKey, ObjectId, ReadQuery, RelKind};
use semcluster_wal::TxnToken;
use semcluster_workload::{CreateMode, QueryKind, TxnOp};
use std::fmt::Write as _;

/// Minimum expected-cost gain before run-time reclustering moves an
/// object.
const RECLUSTER_MIN_GAIN: f64 = 3.0;

/// The audit-record view of the pages a placement search examined.
fn audit_candidates(examined: &[ExaminedCandidate]) -> Vec<CandidateAudit> {
    examined
        .iter()
        .map(|c| CandidateAudit {
            page: c.page,
            score_milli: milli(c.score),
            fits: c.fits,
        })
        .collect()
}

impl Engine {
    /// Execute the next operation of user `u`'s transaction on the
    /// operation clock the caller started.
    pub(super) fn execute_next_op(&mut self, u: u32) -> Result<(), EngineError> {
        let txn = self.users[u as usize].active();
        let op = txn.txn.ops[txn.next_op];
        txn.next_op += 1;
        let token = txn.token;
        let log_token =
            || token.expect("write txn holds a log token (invariant: non-read txns begin one)");
        match op {
            TxnOp::Read { kind, root } => self.exec_read(u, kind, root),
            TxnOp::Create { anchor, mode } => self.exec_create(u, anchor, mode, log_token()),
            TxnOp::Update { target } => self.exec_update(u, target, log_token()),
            TxnOp::Delete { target } => self.exec_delete(target, log_token()),
        }
    }

    /// Charge a placement search's candidate-page reads: they flow
    /// through the buffer manager, and their misses are search I/Os, not
    /// demand reads. They nest under the scoring phase `ptok` (zero
    /// simulated self cost: scoring is CPU work, charged through the CPU
    /// server), closed here before a read failure propagates.
    fn charge_search(
        &mut self,
        examined: &[ExaminedCandidate],
        ptok: Option<PhaseToken>,
    ) -> Result<(), EngineError> {
        let charged = examined
            .iter()
            .try_for_each(|c| self.charge_access(c.page, ReadCause::ClusterSearch));
        self.prof_exit(ptok, 0);
        charged
    }

    /// The clustering policy in force right now (resolves `Adaptive`
    /// against the observed read/write ratio of the last transactions).
    /// Under graceful degradation the candidate search is suspended:
    /// placement falls back to plain append until the cluster-search
    /// budget recovers.
    fn effective_clustering(&self) -> ClusteringPolicy {
        if self.faults.degraded() {
            return ClusteringPolicy::NoCluster;
        }
        if self.cfg.clustering != ClusteringPolicy::Adaptive {
            return self.cfg.clustering;
        }
        let reads = self.recent_kinds.iter().filter(|&&r| r).count() as f64;
        let writes = (self.recent_kinds.len() as f64 - reads).max(1.0);
        self.cfg.clustering.resolve_adaptive(reads / writes)
    }

    fn exec_read(&mut self, u: u32, kind: QueryKind, root: ObjectId) -> Result<(), EngineError> {
        let query = match kind {
            QueryKind::SimpleLookup => ReadQuery::SimpleLookup,
            QueryKind::ComponentRetrieval => ReadQuery::ComponentRetrieval,
            QueryKind::CompositeRetrieval => ReadQuery::CompositeRetrieval {
                fanout: self.cfg.workload.density.sample_fanout(&mut self.rng),
            },
            QueryKind::DescendantRetrieval => ReadQuery::DescendantRetrieval,
            QueryKind::AncestorRetrieval => ReadQuery::AncestorRetrieval,
            QueryKind::CorrespondentRetrieval => ReadQuery::CorrespondentRetrieval,
        };
        semcluster_vdm::execute_read(
            &self.db,
            query,
            root,
            &mut self.walk,
            &mut self.read_objects,
        );

        self.charge_cpu(self.read_objects.len() as u64);
        // By index: the accesses below need `&mut self`, and none of them
        // touches `read_objects`.
        for i in 0..self.read_objects.len() {
            let obj = self.read_objects[i];
            if let Some(page) = self.store.page_of(obj) {
                self.charge_access(page, ReadCause::Demand)?;
            }
            if i == 0 {
                self.context_boost(obj);
                self.do_prefetch(obj, kind);
            }
        }
        self.generator.remember(u, root);
        Ok(())
    }

    fn exec_create(
        &mut self,
        u: u32,
        anchor: ObjectId,
        mode: CreateMode,
        token: TxnToken,
    ) -> Result<(), EngineError> {
        // 1. Logical creation. The anchor can legally have been deleted
        // by an earlier transaction, so a missing anchor is a run
        // condition (the create aborts), not an invariant violation.
        let id = match mode {
            CreateMode::NewComponent => {
                let a = *self
                    .db
                    .get_live(anchor)
                    .map_err(|_| EngineError::Placement {
                        object: anchor.0,
                        detail: "create anchor no longer exists",
                    })?;
                self.create_seq += 1;
                self.name_buf.clear();
                write!(self.name_buf, "w{}", self.create_seq)
                    .expect("writing to a String cannot fail");
                let name = NameKey {
                    base: self.db.intern(&self.name_buf),
                    version: 1,
                    rep: a.name.rep,
                };
                let body = self.rng.range_inclusive(64, 512) as u32;
                let id = self
                    .db
                    .create_object_key(name, a.ty, body)
                    .expect("generated names are unique (monotone create_seq)");
                self.db
                    .relate(RelKind::Configuration, anchor, id)
                    .expect("edge to a freshly created object cannot already exist");
                id
            }
            CreateMode::NewVersion => {
                derive_version(&mut self.db, anchor, &CopyVsRefModel::default())
                    .map_err(|_| EngineError::Placement {
                        object: anchor.0,
                        detail: "version-derivation anchor no longer exists",
                    })?
                    .id
            }
        };
        let size = self
            .db
            .get(id)
            .expect("object created two statements ago is present")
            .size_bytes();

        // 2. Placement search (candidate-page reads are charged). The
        // scoring runs on the engine's dense scratch arenas — pinned
        // allocation-free by the profile golden.
        let policy = self.effective_clustering();
        let ptok = self.prof_enter(Phase::PlacementScore);
        let plan = plan_placement_in(
            &self.db,
            &self.store,
            &self.pool,
            policy,
            &self.weights,
            id,
            size,
            &mut self.scratch,
        );
        self.charge_cpu(1);
        self.charge_search(&plan.examined, ptok)?;

        // 3. Page-overflow handling: bound for the append cursor because
        // the page it belongs on is full, the newcomer may split that
        // page instead.
        let split_plan = match plan.preferred_full {
            Some(full)
                if plan.target == PlacementTarget::Append
                    && self.cfg.split != SplitPolicy::NoSplit =>
            {
                let stok = self.prof_enter(Phase::SplitPlan);
                let split = consider_split(
                    &self.db,
                    &self.store,
                    &self.weights,
                    self.cfg.split,
                    full,
                    plan.preferred_full_affinity,
                    plan.chosen_affinity,
                    (id, size),
                    &mut self.scratch,
                );
                // Planning is bookkeeping: zero simulated self cost.
                self.prof_exit(stok, 0);
                split.map(|split| (full, split))
            }
            _ => None,
        };
        let mut split_verdict = if plan.preferred_full.is_some() {
            SplitVerdict::Declined
        } else {
            SplitVerdict::NotConsidered
        };
        let infeasible = |detail| EngineError::Placement {
            object: id.0,
            detail,
        };
        let landed = match split_plan {
            Some((full, split_plan)) => {
                let outcome = execute_split(&mut self.store, &split_plan)
                    .map_err(|_| infeasible("split plan no longer feasible against the store"))?;
                self.charge_split_cpu();
                self.charge_access(full, ReadCause::Demand)?;
                self.charge_install(outcome.new_page)?;
                self.pool.mark_dirty(full);
                self.pool.mark_dirty(outcome.new_page);
                // One extra I/O to flush the new page, plus a log
                // record for the split (§5.1.2).
                self.charge_flush(outcome.new_page, FlushCause::Split)?;
                self.charge_log(token, outcome.new_page, size);
                if self.mirror.is_some() {
                    // Each object the split carried off the full page
                    // is a logged move.
                    for (moved, size) in split_plan.moved() {
                        self.mirror_op(
                            token,
                            WalOp::Move {
                                object: moved.0,
                                size,
                                from: full.0,
                                to: outcome.new_page.0,
                            },
                        );
                    }
                }
                self.registry.bump(self.counters.cluster_split);
                let at = self.clock.now();
                self.emit(|| TraceEvent::Split {
                    at,
                    from: full,
                    new: outcome.new_page,
                });
                split_verdict = SplitVerdict::Executed {
                    new_page: outcome.new_page,
                };
                self.scratch.put_split(split_plan);
                outcome.incoming_page
            }
            None => execute_placement(&mut self.store, id, size, &plan)
                .map_err(|_| infeasible("planned target page could not take the object"))?,
        };

        if let Some(audit) = self.audit.as_mut() {
            audit.push(PlacementAudit {
                at: self.clock.issued(),
                kind: AuditKind::Create,
                object: id.0,
                candidates: audit_candidates(&plan.examined),
                chosen: match plan.target {
                    PlacementTarget::Existing(p) => Some(p),
                    PlacementTarget::Append => None,
                },
                landed,
                score_milli: milli(plan.chosen_affinity),
                preferred_full: plan.preferred_full,
                split: split_verdict,
                search_ios: plan.search_ios,
            });
        }
        self.scratch.put_examined(plan.examined);

        // 4. Touch + dirty + log the landing page.
        let fresh = self
            .store
            .page(landed)
            .map(|p| p.object_count() == 1)
            .unwrap_or(false);
        if fresh {
            self.charge_install(landed)?;
        } else {
            self.charge_access(landed, ReadCause::Demand)?;
        }
        self.pool.mark_dirty(landed);
        self.charge_log(token, landed, size);
        self.mirror_op(
            token,
            WalOp::Place {
                object: id.0,
                size,
                page: landed.0,
            },
        );
        self.generator.remember(u, id);
        Ok(())
    }

    fn exec_update(
        &mut self,
        u: u32,
        target: ObjectId,
        token: TxnToken,
    ) -> Result<(), EngineError> {
        self.charge_cpu(1);
        let (Some(page), Some(size)) = (self.store.page_of(target), self.store.size_of(target))
        else {
            return Ok(());
        };
        self.charge_access(page, ReadCause::Demand)?;
        self.pool.mark_dirty(page);
        self.charge_log(token, page, size);
        self.mirror_op(
            token,
            WalOp::Touch {
                object: target.0,
                size,
                page: page.0,
            },
        );

        // Run-time reclustering: the update is the moment the cluster
        // manager re-evaluates the object's placement. Suspended while
        // degraded (effective policy is NoCluster, which never clusters).
        let policy = self.effective_clustering();
        if policy.clusters() {
            let ptok = self.prof_enter(Phase::PlacementScore);
            let plan = plan_recluster_in(
                &self.db,
                &self.store,
                &self.pool,
                policy,
                &self.weights,
                target,
                RECLUSTER_MIN_GAIN,
                &mut self.scratch,
            );
            let examined = plan.as_ref().map_or(&[][..], |p| &p.examined);
            self.charge_search(examined, ptok)?;
            if let Some(plan) = plan {
                let moved = self.store.move_object(target, plan.to).is_ok();
                if moved {
                    self.pool.mark_dirty(page);
                    self.pool.mark_dirty(plan.to);
                    self.charge_log(token, plan.to, size);
                    self.mirror_op(
                        token,
                        WalOp::Move {
                            object: target.0,
                            size,
                            from: page.0,
                            to: plan.to.0,
                        },
                    );
                    self.registry.bump(self.counters.cluster_recluster_move);
                    let at = self.clock.now();
                    self.emit(|| TraceEvent::ReclusterMove {
                        at,
                        object: target.0,
                        from: page,
                        to: plan.to,
                    });
                }
                if let Some(audit) = self.audit.as_mut() {
                    audit.push(PlacementAudit {
                        at: self.clock.issued(),
                        kind: AuditKind::Recluster,
                        object: target.0,
                        candidates: audit_candidates(&plan.examined),
                        chosen: Some(plan.to),
                        landed: if moved { plan.to } else { page },
                        score_milli: milli(plan.gain),
                        preferred_full: None,
                        split: SplitVerdict::NotConsidered,
                        search_ios: plan.search_ios,
                    });
                }
                self.scratch.put_examined(plan.examined);
            }
        }
        self.generator.remember(u, target);
        Ok(())
    }

    /// §4.1 query type 7 also covers deletion: remove the object
    /// logically (tombstoned; refused while by-reference inheritors
    /// exist) and physically, logging the page update.
    fn exec_delete(&mut self, target: ObjectId, token: TxnToken) -> Result<(), EngineError> {
        self.charge_cpu(1);
        if self.db.delete_object(target).is_err() {
            // Already gone, or protected by inheritors: a no-op read of
            // the catalog.
            return Ok(());
        }
        if let (Some(page), Some(size)) = (self.store.page_of(target), self.store.size_of(target)) {
            self.charge_access(page, ReadCause::Demand)?;
            let removed = self.store.remove(target).is_ok();
            self.pool.mark_dirty(page);
            self.charge_log(token, page, size);
            if removed {
                self.mirror_op(
                    token,
                    WalOp::Remove {
                        object: target.0,
                        size,
                        page: page.0,
                    },
                );
            }
            self.record_delete();
        }
        Ok(())
    }
}
