/**
 * @file
 * Discrete-event simulation kernel: Event, EventQueue.
 *
 * The whole machine — CPU instruction issue, DMA transfer progress,
 * network packet delivery, scheduler quantum expiry — is driven from one
 * EventQueue per simulation.  Events scheduled for the same tick fire in
 * (priority, insertion-order) order so simulations are deterministic.
 */

#ifndef ULDMA_SIM_EVENT_HH
#define ULDMA_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "util/types.hh"

namespace uldma {

class EventQueue;

/**
 * An occurrence scheduled to happen at some future tick.  Subclass and
 * implement process(), or use LambdaEvent for one-off callbacks.
 */
class Event
{
  public:
    /**
     * Same-tick tie-break.  Lower priorities fire first.  The defaults
     * keep device completions ahead of CPU issue which is ahead of
     * bookkeeping.
     */
    enum Priority : int
    {
        DevicePrio = 0,
        CpuPrio = 10,
        SchedulerPrio = 20,
        DefaultPrio = 30,
    };

    explicit Event(std::string name, int priority = DefaultPrio)
        : name_(std::move(name)), priority_(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches the event. */
    virtual void process() = 0;

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }
    /** The tick this event is (or was last) scheduled for. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    bool scheduled_ = false;
    bool squashed_ = false;
    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
};

/**
 * One-shot event wrapping a std::function.  When scheduled through
 * EventQueue::scheduleLambda() the queue owns it and frees it once it
 * fires or is squashed.
 */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = DefaultPrio)
        : Event(std::move(name), priority), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * The simulation's clock and pending-event set.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Still-pending owned lambda events are descheduled and freed. */
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p event at absolute tick @p when (>= now).  The event
     * must not already be scheduled.  Ownership stays with the caller;
     * the event must outlive its firing or be deschedule()d first.
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event without firing it. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and reschedule at @p when. */
    void reschedule(Event *event, Tick when);

    /**
     * Schedule a one-shot callback at @p when; the wrapper event is
     * owned by the queue and reclaimed after it fires.
     */
    void scheduleLambda(std::string name, Tick when,
                        std::function<void()> fn,
                        int priority = Event::DefaultPrio);

    /** True if no events are pending. */
    bool empty() const { return numScheduled_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return numScheduled_; }

    /** Tick of the earliest pending event; maxTick if none. */
    Tick nextEventTick();

    /**
     * Fire the single earliest event, advancing now().
     * @return true if an event fired.
     */
    bool step();

    /** Run until the queue is empty or now() would exceed @p limit. */
    void runUntil(Tick limit);

    /** Run until the queue drains completely. */
    void runToExhaustion() { runUntil(maxTick); }

    /** Advance time to @p when without firing later events. */
    void advanceTo(Tick when);

    /**
     * Bound run-ahead (see runAhead()): no inline step may reach past
     * @p limit, and none is taken once now() >= @p stop_at.  Machine::run()
     * publishes them before each step and turns run-ahead off when it
     * returns; a queue driven directly never runs ahead.
     */
    void
    setRunAheadBounds(Tick limit, Tick stop_at)
    {
        runAheadLimit_ = limit;
        runAheadStop_ = stop_at;
    }

    /** Turn run-ahead off: runAhead() then always refuses. */
    void clearRunAheadBounds() { setRunAheadBounds(0, 0); }

    /**
     * Called by the event being processed to continue at @p when
     * without a queue round trip.  Allowed only if @p when is strictly
     * earlier than every pending event, so the (when, priority,
     * sequence) order is exactly what scheduling would have produced,
     * and within the published bounds.  On success now() advances to
     * @p when and the caller carries on; otherwise nothing changes and
     * the caller schedules itself as usual.  An inline step is not
     * counted by numProcessed().
     */
    bool runAhead(Tick when);

    /** Total number of events processed so far. */
    std::uint64_t numProcessed() const { return numProcessed_; }

  private:
    /** Queue @p event at @p when; @p owned events are freed by the queue. */
    void push(Event *event, Tick when, bool owned);
    /** Drop squashed/stale entries from the head of the queue. */
    void purgeStale();

    struct QueueEntry
    {
        Tick when;
        int priority;
        /** The queue allocated the event (scheduleLambda) and frees it. */
        bool owned;
        std::uint64_t sequence;
        Event *event;

        bool
        operator>(const QueueEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return sequence > other.sequence;
        }
    };

    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>> queue_;
    Tick now_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::size_t numScheduled_ = 0;
    Tick runAheadLimit_ = 0;
    /** 0 keeps run-ahead off: now() >= 0 always holds. */
    Tick runAheadStop_ = 0;
};

} // namespace uldma

#endif // ULDMA_SIM_EVENT_HH
