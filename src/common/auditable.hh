/**
 * @file
 * The Auditable interface: deep, periodic self-checks.
 *
 * An Auditable component knows how to walk its own state and verify
 * every structural invariant it relies on (request conservation, LRU
 * stamp uniqueness, remap bijectivity, ...). Implementations express
 * each invariant with RRM_ASSERT, so the first violation panics.
 *
 * System runs the audits of every component it owns on a configurable
 * executed-event cadence (SystemConfig::auditEveryEvents); tests call
 * audit() directly after seeding deliberate corruption to prove the
 * audits actually bite.
 */

#ifndef RRM_COMMON_AUDITABLE_HH
#define RRM_COMMON_AUDITABLE_HH

namespace rrm
{

/** A component whose internal invariants can be deep-checked. */
class Auditable
{
  public:
    virtual ~Auditable() = default;

    /** Verify every internal invariant; panic() on the first broken one. */
    virtual void audit() const = 0;
};

} // namespace rrm

#endif // RRM_COMMON_AUDITABLE_HH
