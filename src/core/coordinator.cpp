#include "core/coordinator.h"

#include <stdexcept>

#include "spec/simulation_spec.h"
#include "util/random.h"

namespace vmat {
namespace {

/// Buffers the event stream of a capture prefix while forwarding it to the
/// user's sink (if any) — so snapshot_after_formation()/prepare_epoch()
/// record the same events a plain execute() would, and the buffered copy
/// replays into a fork's (or a restored epoch's) sink on restore.
struct TeeSink final : TraceSink {
  TraceSink* downstream{nullptr};
  std::vector<TraceEvent>* buffer{nullptr};

  void on_event(const TraceEvent& event) override {
    buffer->push_back(event);
    if (downstream != nullptr) downstream->on_event(event);
  }
  void on_execution_end(const ExecutionMetrics& metrics) override {
    if (downstream != nullptr) downstream->on_execution_end(metrics);
  }
};

/// Attaches the coordinator's tracer to the network for one verb and undoes
/// it on every exit path, so no component keeps a handle into a dead
/// coordinator. Given a `prefix` buffer it also tees the event stream into
/// it for the lifetime of the scope.
class TraceScope {
 public:
  TraceScope(Network& net, TraceState& state,
             std::vector<TraceEvent>* prefix = nullptr)
      : net_(net), state_(state), user_sink_(state.sink) {
    if (prefix != nullptr) {
      tee_.downstream = user_sink_;
      tee_.buffer = prefix;
      state_.sink = &tee_;
    }
    net_.set_tracer(tracer());
  }
  ~TraceScope() {
    net_.set_tracer({});
    state_.sink = user_sink_;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  [[nodiscard]] Tracer tracer() const noexcept { return Tracer{&state_}; }

 private:
  Network& net_;
  TraceState& state_;
  TraceSink* user_sink_;
  TeeSink tee_;
};

CoordinatorSpec validated_coordinator_spec(const SimulationSpec& spec) {
  const auto errors = spec.validate();
  if (!errors.empty()) {
    std::string msg = "VmatCoordinator: invalid SimulationSpec";
    for (const Error& e : errors) {
      msg += "\n  ";
      msg += e.to_string();
    }
    throw std::invalid_argument(msg);
  }
  return spec.coordinator();
}

}  // namespace

VmatCoordinator::VmatCoordinator(Network* net, Adversary* adversary,
                                 CoordinatorSpec config)
    : net_(net),
      adversary_(adversary),
      config_(config),
      depth_bound_(config.depth_bound),
      nonce_state_(config.seed ^ 0x1234567890abcdefULL),
      audits_(net->node_count()),
      broadcaster_(config.seed, kMaxBroadcasts),
      receiver_(broadcaster_.anchor()) {
  if (net == nullptr) throw std::invalid_argument("VmatCoordinator: null net");
  if (config.instances == 0)
    throw std::invalid_argument("VmatCoordinator: zero instances");
  if (depth_bound_ == 0) {
    // "VMAT knows a rough upper bound on the depth" — default to the
    // depth of the physical topology.
    depth_bound_ = net_->physical_depth();
  }
}

VmatCoordinator::VmatCoordinator(Network* net, Adversary* adversary,
                                 const SimulationSpec& spec)
    : VmatCoordinator(net, adversary, validated_coordinator_spec(spec)) {}

std::uint64_t VmatCoordinator::fresh_nonce() noexcept {
  return splitmix64(nonce_state_);
}

void VmatCoordinator::set_recorder(FlightRecorder* recorder) {
  trace_state_.sink = recorder;
  if (recorder == nullptr) return;
  TraceContext ctx;
  ctx.nodes = net_->node_count();
  ctx.depth_bound = depth_bound_;
  ctx.ring_size = net_->keys().config().ring_size;
  ctx.theta = net_->revocation().threshold();
  ctx.instances = config_.instances;
  ctx.slotted_sof = config_.slotted_sof;
  recorder->set_context(ctx);
}

void VmatCoordinator::authenticated_broadcast(const Bytes& payload,
                                              int& rounds, Tracer tracer) {
  const SignedBroadcast b = broadcaster_.sign(payload, tracer);
  // Every non-revoked sensor holds the same cursor, so one verification
  // decides for all of them; each still meters its own verify.
  const bool ok = receiver_.verify(b);
  std::uint64_t receivers = 0;
  for (std::uint32_t id = 1; id < net_->node_count(); ++id) {
    if (net_->revocation().is_sensor_revoked(NodeId{id})) continue;
    tracer.mac_verify(NodeId{id}, kNoKey, ok);
    if (!ok)
      throw std::logic_error("authenticated broadcast rejected by a sensor");
    ++receivers;
  }
  if (receivers > 0) receiver_.advance(b);
  tracer.auth_broadcast(payload.size(), receivers);
  rounds += 1;
}

std::uint64_t VmatCoordinator::form_tree(int& rounds, Tracer tracer) {
  const std::uint64_t session = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.tree");
    announce.u64(session);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), rounds, tracer);
  }
  TreePhaseParams tree_params;
  tree_params.mode = config_.tree_mode;
  tree_params.depth_bound = depth_bound_;
  tree_params.session = session;
  tracer.begin_phase(TracePhase::kTreeFormation);
  tree_ = run_tree_formation(*net_, adversary_, tree_params, tracer);
  rounds += 1;
  formations_ += 1;
  return session;
}

void VmatCoordinator::check_inputs(const char* verb, const ValueTable& values,
                                   const ValueTable& weights,
                                   std::uint32_t width) const {
  const std::uint32_t n = net_->node_count();
  if (values.node_count != n || weights.node_count != n)
    throw std::invalid_argument(std::string(verb) +
                                ": values/weights must cover all nodes");
  if (width == 0 || values.instances != width || weights.instances != width)
    throw std::invalid_argument(std::string(verb) +
                                ": instance-count mismatch");
}

ValueTable VmatCoordinator::min_values(
    const char* verb, const std::vector<Reading>& readings) const {
  if (config_.instances != 1)
    throw std::logic_error(std::string(verb) + " requires instances == 1");
  ValueTable values(static_cast<std::uint32_t>(readings.size()), 1, 0);
  for (std::uint32_t id = 0; id < values.node_count; ++id) {
    Reading r = readings[id];
    if (adversary_ != nullptr && adversary_->is_byzantine(NodeId{id}))
      r = adversary_->strategy().own_reading(NodeId{id}, r);
    values.data[id] = r;
  }
  return values;
}

ExecutionOutcome VmatCoordinator::execute(const ValueTable& values,
                                          const ValueTable& weights,
                                          const ContentValidator& validate) {
  check_inputs("execute", values, weights, config_.instances);
  const TraceScope scope(*net_, trace_state_);
  Tracer tracer = scope.tracer();
  tracer.begin_execution();

  // A one-shot execution forms its own tree, which orphans any epoch tree
  // a serving layer may have prepared.
  epoch_stale_ = true;

  int rounds = 0;
  (void)form_tree(rounds, tracer);
  return run_query_phases(values, weights, validate, tracer, rounds);
}

ExecutionOutcome VmatCoordinator::run_min(
    const std::vector<Reading>& readings) {
  const ValueTable values = min_values("run_min", readings);
  return execute(values, ValueTable(values.node_count, 1, 0));
}

std::vector<ExecutionOutcome> VmatCoordinator::run_until_result(
    const ValueTable& values, const ValueTable& weights,
    const ContentValidator& validate, int max_executions) {
  std::vector<ExecutionOutcome> history;
  for (int i = 0; i < max_executions; ++i) {
    history.push_back(execute(values, weights, validate));
    if (history.back().produced_result()) return history;
  }
  throw std::runtime_error(
      "run_until_result: no result after max_executions — an execution "
      "failed to revoke adversary material (Theorem 7 violation)");
}

bool VmatCoordinator::epoch_tree_current() const noexcept {
  return net_->revocation().revoked_key_count() == epoch_.revoked_keys &&
         net_->revocation().revoked_sensors_in_order().size() ==
             epoch_.revoked_sensors &&
         net_->key_generation() == epoch_.key_generation;
}

bool VmatCoordinator::epoch_ready() const noexcept {
  return !epoch_stale_ && epoch_.id != 0 && epoch_tree_current();
}

const Epoch& VmatCoordinator::prepare_epoch() {
  if (epoch_ready()) return epoch_;

  if (epoch_snapshot_.has_value() && epoch_tree_current()) {
    // Stale, but nothing revocation/key-shaped moved since the formation:
    // restore its tree. Monotone counters survive the rewind — the nonce
    // stream, the broadcast chain cursor and the trace ordinals keep
    // advancing — so a restored epoch never reuses a nonce or a chain
    // element.
    const std::uint64_t cur_nonce = nonce_state_;
    const std::uint64_t cur_next = broadcaster_.next_epoch();
    const std::int64_t cur_execs = trace_state_.executions;
    const std::int64_t cur_epochs = trace_state_.epochs;

    restore_snapshot(*epoch_snapshot_, cur_epochs);

    nonce_state_ = cur_nonce;
    broadcaster_.restore_next_epoch(cur_next);
    trace_state_.executions = cur_execs;
    trace_state_.epochs = cur_epochs + 1;
    epoch_.id += 1;
    epoch_.restored = true;
    epoch_stale_ = false;
    return epoch_;
  }

  // Tee the epoch slice's event stream so the snapshot captured below can
  // replay it when the epoch is restored.
  std::vector<TraceEvent> prefix;
  const TraceScope scope(*net_, trace_state_, &prefix);
  Tracer tracer = scope.tracer();
  tracer.begin_epoch();

  int rounds = 0;
  const std::uint64_t session = form_tree(rounds, tracer);
  tracer.end_epoch();

  epoch_.id += 1;
  epoch_.session = session;
  epoch_.restored = false;
  epoch_.formation_rounds = rounds;
  epoch_.metrics = trace_state_.metrics;
  epoch_.fabric_bytes = epoch_.metrics.totals().bytes_sent;
  epoch_.revoked_keys = net_->revocation().revoked_key_count();
  epoch_.revoked_sensors = net_->revocation().revoked_sensors_in_order().size();
  epoch_.key_generation = net_->key_generation();
  epoch_stale_ = false;
  epoch_snapshot_ = capture_snapshot(rounds, std::move(prefix));
  return epoch_;
}

ExecutionOutcome VmatCoordinator::run_query(const ValueTable& values,
                                            const ValueTable& weights,
                                            const ContentValidator& validate) {
  if (!epoch_ready())
    throw std::logic_error(
        "run_query: no ready epoch — call prepare_epoch() first (a "
        "revocation or rekey invalidates the current epoch)");
  check_inputs("run_query", values, weights, values.instances);
  const TraceScope scope(*net_, trace_state_);
  Tracer tracer = scope.tracer();
  tracer.begin_execution();
  return run_query_phases(values, weights, validate, tracer, 0);
}

ExecutionOutcome VmatCoordinator::run_query_phases(
    const ValueTable& values, const ValueTable& weights,
    const ContentValidator& validate, Tracer tracer, int rounds_so_far) {
  const std::uint32_t n = net_->node_count();
  const std::uint32_t instances = values.instances;

  // Arm `(round>= N)` trigger predicates: one bump per execution, on every
  // verb (execute / run_query / resume_from).
  if (adversary_ != nullptr) adversary_->view().begin_execution_round();

  ExecutionOutcome out;
  out.data_rounds = rounds_so_far;

  // --- announce query + aggregation ---
  const std::uint64_t agg_nonce = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.query");
    announce.u64(agg_nonce);
    announce.u32(instances);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), out.data_rounds, tracer);
  }
  AggConfig agg_config;
  agg_config.instances = instances;
  agg_config.nonce = agg_nonce;
  agg_config.multipath = config_.multipath;
  tracer.begin_phase(TracePhase::kAggregation);
  const AggregationOutcome agg =
      run_aggregation(*net_, adversary_, tree_, agg_config, values, weights,
                      audits_, tracer);
  out.data_rounds += 1;

  auto finish = [&](ExecutionOutcome& o) -> ExecutionOutcome& {
    tracer.end_execution(o.produced_result(),
                         static_cast<std::int64_t>(o.trigger));
    o.metrics = trace_state_.metrics;
    o.fabric_bytes = o.metrics.totals().bytes_sent;
    return o;
  };
  auto finish_pinpoint = [&](PinpointOutcome&& pp, Trigger trigger) {
    out.kind = OutcomeKind::kRevocation;
    out.trigger = trigger;
    out.revoked_keys = std::move(pp.revoked_keys);
    out.revoked_sensors = std::move(pp.revoked_sensors);
    out.reason = std::move(pp.reason);
    out.pinpoint_cost = pp.cost;
    return finish(out);
  };

  // --- Figure 1 step 4: classify arrivals, junk first ---
  std::vector<Reading> minima(instances, kInfinity);
  for (const BsArrival& a : agg.arrivals) {
    const bool id_ok =
        a.msg.origin != kBaseStation && a.msg.origin.value < n &&
        !net_->revocation().is_sensor_revoked(a.msg.origin);
    const bool mac_ok =
        id_ok && verify_agg_message(net_->keys().sensor_mac_context(a.msg.origin),
                                    a.msg, agg_nonce);
    tracer.mac_verify(a.msg.origin, kNoKey, mac_ok);
    if (!mac_ok) {
      tracer.arrival_rejected(a.msg.origin, a.slot, a.msg.value);
      tracer.begin_phase(TracePhase::kPinpoint);
      PinpointEngine engine(net_, adversary_, &audits_, &tree_,
                             config_.predicate_mode, tracer);
      return finish_pinpoint(
          engine.junk_triggered_aggregation(a.msg, a.in_edge, a.slot),
          Trigger::kJunkAggregation);
    }
    const bool content_ok =
        validate ? validate(a.msg) : a.msg.weight == 0;
    if (!content_ok) {
      // Valid sensor-key MAC over impossible content: only the origin's key
      // holder could have signed it. Revoke the origin outright.
      tracer.arrival_rejected(a.msg.origin, a.slot, a.msg.value);
      out.kind = OutcomeKind::kRevocation;
      out.trigger = Trigger::kSelfIncrimination;
      out.reason = "aggregation message with valid MAC but invalid content";
      out.revoked_sensors = net_->revocation().revoke_sensor(a.msg.origin);
      return finish(out);
    }
    tracer.arrival_accepted(a.msg.origin, a.slot, a.msg.value);
    if (a.msg.value < minima[a.msg.instance]) minima[a.msg.instance] = a.msg.value;
  }

  // --- announce minima + confirmation ---
  const std::uint64_t conf_nonce = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.minima");
    announce.u64(conf_nonce);
    for (Reading m : minima) announce.i64(m);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), out.data_rounds, tracer);
  }
  tracer.begin_phase(TracePhase::kConfirmation);
  const ConfirmationOutcome conf =
      run_confirmation(*net_, adversary_, tree_, minima, conf_nonce, values,
                       audits_, config_.slotted_sof, tracer);
  out.data_rounds += 1;

  // --- Figure 1 steps 7/8: spurious veto beats legitimate veto ---
  const VetoArrival* legit = nullptr;
  for (const VetoArrival& v : conf.arrivals) {
    const bool id_ok = v.msg.origin != kBaseStation && v.msg.origin.value < n &&
                       !net_->revocation().is_sensor_revoked(v.msg.origin);
    const bool mac_ok =
        id_ok && verify_veto(net_->keys().sensor_mac_context(v.msg.origin),
                             v.msg, conf_nonce);
    tracer.mac_verify(v.msg.origin, kNoKey, mac_ok);
    if (!mac_ok) {
      tracer.arrival_rejected(v.msg.origin, v.interval, v.msg.value);
      tracer.begin_phase(TracePhase::kPinpoint);
      PinpointEngine engine(net_, adversary_, &audits_, &tree_,
                             config_.predicate_mode, tracer);
      return finish_pinpoint(
          engine.junk_triggered_confirmation(v.msg, v.in_edge, v.interval),
          Trigger::kJunkConfirmation);
    }
    const bool semantics_ok = v.msg.instance < instances &&
                              v.msg.level >= 1 && v.msg.level <= depth_bound_ &&
                              v.msg.value < minima[v.msg.instance];
    if (!semantics_ok) {
      tracer.arrival_rejected(v.msg.origin, v.interval, v.msg.value);
      out.kind = OutcomeKind::kRevocation;
      out.trigger = Trigger::kSelfIncrimination;
      out.reason = "veto with valid MAC but impossible claim";
      out.revoked_sensors = net_->revocation().revoke_sensor(v.msg.origin);
      return finish(out);
    }
    tracer.arrival_accepted(v.msg.origin, v.interval, v.msg.value);
    if (legit == nullptr) legit = &v;
  }
  if (legit != nullptr) {
    tracer.begin_phase(TracePhase::kPinpoint);
    PinpointEngine engine(net_, adversary_, &audits_, &tree_,
                          config_.predicate_mode, tracer);
    return finish_pinpoint(engine.veto_triggered(legit->msg), Trigger::kVeto);
  }

  // --- Figure 1 step 6: no veto, the minima are correct ---
  out.kind = OutcomeKind::kResult;
  out.trigger = Trigger::kNone;
  out.minima = std::move(minima);
  return finish(out);
}

std::uint64_t VmatCoordinator::deployment_fingerprint() const {
  std::uint64_t h = net_->snapshot_fingerprint();
  h = snapshot_mix(h, config_.seed);
  h = snapshot_mix(h, depth_bound_);
  h = snapshot_mix(h, static_cast<std::uint64_t>(config_.tree_mode));
  h = snapshot_mix(h, config_.multipath ? 1 : 0);
  h = snapshot_mix(h, config_.slotted_sof ? 1 : 0);
  h = snapshot_mix(h, config_.instances);
  h = snapshot_mix(h, static_cast<std::uint64_t>(config_.predicate_mode));
  return h;
}

Snapshot VmatCoordinator::capture_snapshot(
    int rounds, std::vector<TraceEvent> prefix_events) const {
  Snapshot snap;
  snap.fingerprint_ = deployment_fingerprint();
  snap.node_count_ = net_->node_count();
  snap.formation_rounds_ = rounds;
  snap.nonce_state_ = nonce_state_;
  snap.broadcast_next_epoch_ = broadcaster_.next_epoch();
  snap.receiver_ = receiver_;
  snap.metrics_ = trace_state_.metrics;
  snap.phase_ = trace_state_.phase;
  snap.slot_ = trace_state_.slot;
  snap.executions_ = trace_state_.executions;
  snap.epochs_ = trace_state_.epochs;
  snap.prefix_events_ = std::move(prefix_events);
  snap.tree_ = tree_;
  net_->snapshot_save(snap.network_);
  return snap;
}

void VmatCoordinator::restore_snapshot(const Snapshot& snapshot,
                                       std::int64_t epoch_ordinal) {
  if (snapshot.empty())
    throw std::invalid_argument("restore_snapshot: empty snapshot");
  if (snapshot.node_count() != net_->node_count() ||
      snapshot.fingerprint() != deployment_fingerprint())
    throw std::invalid_argument(
        "restore_snapshot: snapshot belongs to an incompatible deployment "
        "(topology/key material/config mismatch)");

  // First, because it refuses stale key material before any state moves.
  net_->snapshot_load(snapshot.network_);

  // Whatever happens below, the live tree is no longer the epoch's.
  epoch_stale_ = true;
  nonce_state_ = snapshot.nonce_state_;
  broadcaster_.restore_next_epoch(snapshot.broadcast_next_epoch_);
  receiver_ = snapshot.receiver_;
  trace_state_.metrics = snapshot.metrics_;
  trace_state_.phase = snapshot.phase_;
  trace_state_.slot = snapshot.slot_;
  trace_state_.executions = snapshot.executions_;
  trace_state_.epochs = snapshot.epochs_;
  tree_ = snapshot.tree_;

  if (TraceSink* sink = trace_state_.sink; sink != nullptr) {
    for (TraceEvent e : snapshot.prefix_events_) {
      if (epoch_ordinal >= 0 && e.kind == TraceEventKind::kEpochBegin)
        e.value = epoch_ordinal;
      // Straight to the sink: going through a Tracer would double-meter
      // events the restored metrics already count.
      sink->on_event(e);
    }
  }
}

Snapshot VmatCoordinator::snapshot_after_formation() {
  // Tee the prefix's event stream: the user's sink (if any) observes it
  // live, and the buffered copy replays into forks' sinks on restore.
  std::vector<TraceEvent> prefix;
  const TraceScope scope(*net_, trace_state_, &prefix);
  Tracer tracer = scope.tracer();
  tracer.begin_execution();

  // Same prefix as execute(): orphan any prepared epoch, fresh session,
  // announcement + tree formation.
  epoch_stale_ = true;
  int rounds = 0;
  (void)form_tree(rounds, tracer);
  return capture_snapshot(rounds, std::move(prefix));
}

ExecutionOutcome VmatCoordinator::resume_from(const Snapshot& snapshot,
                                              const ValueTable& values,
                                              const ValueTable& weights,
                                              const ContentValidator& validate) {
  check_inputs("resume_from", values, weights, values.instances);
  restore_snapshot(snapshot, -1);
  // Mid-execution: the captured prefix already ran begin_execution() (its
  // metrics and ordinal were just restored), so attach without resetting.
  const TraceScope scope(*net_, trace_state_);
  return run_query_phases(values, weights, validate, scope.tracer(),
                          snapshot.formation_rounds());
}

ExecutionOutcome VmatCoordinator::resume_min(
    const Snapshot& snapshot, const std::vector<Reading>& readings) {
  const ValueTable values = min_values("resume_min", readings);
  return resume_from(snapshot, values, ValueTable(values.node_count, 1, 0));
}

}  // namespace vmat
