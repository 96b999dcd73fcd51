/**
 * @file
 * Dump-file format for offline analysis.
 *
 * The paper's methodology (§II.B) is offline: crash dumps of the host,
 * `virsh dump`s of every guest, and the KVM translation tables pulled
 * by a kernel module are collected *first*, then walked by an analysis
 * tool. This module provides the equivalent artifact: a Snapshot can
 * be serialized to a line-oriented text dump and parsed back, so the
 * accounting can run on saved dumps (and dumps from different runs can
 * be diffed), exactly like the paper's workflow.
 *
 * Format (one token stream per line; '#' starts a comment):
 *
 *   jtpsdump 1
 *   vms <count>
 *   overhead <vm> <frames>
 *   frame <hfn> <nrefs>
 *   ref <vm> <gfn> <pid> <is_java 0|1> <category>
 *   end <total_resident_frames>
 *
 * Every number is unsigned decimal, without a sign. The vms line comes
 * before any overhead or ref line and bounds every vm id; overhead
 * lines list vms 0, 1, ... in order; frame hfns strictly ascend, and
 * each frame is followed by exactly <nrefs> ref lines. Nothing follows
 * the end line.
 */

#ifndef JTPS_ANALYSIS_DUMP_FORMAT_HH
#define JTPS_ANALYSIS_DUMP_FORMAT_HH

#include <string>

#include "analysis/forensics.hh"

namespace jtps::analysis
{

/** Serialize a snapshot to the dump format. Deterministic: frames are
 *  emitted in ascending hfn order. */
std::string writeDump(const Snapshot &snap);

/**
 * Parse a dump back into a Snapshot.
 * @throws never — malformed input is a user error: fatal() with the
 *         offending line number.
 */
Snapshot parseDump(const std::string &text);

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_DUMP_FORMAT_HH
