/**
 * @file
 * Convenience builder for constructing DDGs by hand in tests and
 * examples.
 */

#ifndef CVLIW_DDG_BUILDER_HH
#define CVLIW_DDG_BUILDER_HH

#include <initializer_list>
#include <map>
#include <string>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Fluent DDG construction: named nodes wired by flow edges.
 *
 *   DdgBuilder b;
 *   b.op("a", OpClass::Load);
 *   b.op("s", OpClass::FpAlu, {"a"});       // s consumes a
 *   b.flow("s", "s", 1);                    // loop-carried reduction
 *   Ddg ddg = b.take();
 */
class DdgBuilder
{
  public:
    /**
     * Add an operation consuming the named @p operands through
     * distance-0 flow edges. A duplicate @p name throws
     * std::invalid_argument.
     */
    NodeId op(const std::string &name, OpClass cls,
              std::initializer_list<std::string> operands = {});

    /** Add a flow edge with explicit distance. */
    EdgeId flow(const std::string &src, const std::string &dst,
                int distance = 0);

    /** Add a memory ordering edge with explicit distance/latency. */
    EdgeId mem(const std::string &src, const std::string &dst,
               int distance = 0, int latency = 1);

    /** Mark a named node as live-out (consumed after the loop). */
    void liveOut(const std::string &name);

    /** Look up a node by name (std::invalid_argument when missing). */
    NodeId id(const std::string &name) const;

    /** Access the graph being built. */
    const Ddg &graph() const { return ddg_; }

    /** Move the finished graph out of the builder. */
    Ddg take() { return std::move(ddg_); }

  private:
    Ddg ddg_;
    std::map<std::string, NodeId> byName_;
};

} // namespace cvliw

#endif // CVLIW_DDG_BUILDER_HH
