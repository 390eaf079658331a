/**
 * @file
 * Recommend wire messages and method ids (paper §III-D).
 */

#ifndef MUSUITE_SERVICES_RECOMMEND_PROTO_H
#define MUSUITE_SERVICES_RECOMMEND_PROTO_H

#include <cmath>
#include <cstdint>

#include "serde/wire.h"

namespace musuite {
namespace recommend {

enum Method : uint32_t {
    kPredict = 1,     //!< Mid-tier entry point.
    kLeafPredict = 2, //!< Leaf collaborative-filtering prediction.
};

/** {user, item} query pair; client→mid-tier→leaf. */
struct RatingQuery
{
    uint32_t user = 0;
    uint32_t item = 0;

    void
    encode(WireWriter &out) const
    {
        out.putVarint(user);
        out.putVarint(item);
    }

    bool
    decode(WireReader &in)
    {
        user = uint32_t(in.getVarint());
        item = uint32_t(in.getVarint());
        return in.ok();
    }
};

/** Predicted rating; leaf→mid-tier and (averaged) mid-tier→client. */
struct RatingReply
{
    double rating = 0.0;
    /** True if some leaf shards did not contribute to the average. */
    bool degraded = false;

    void
    encode(WireWriter &out) const
    {
        out.putDouble(rating);
        out.putBool(degraded);
    }

    /** Rejects trailing bytes and a rating that is not finite: a
     *  raw double takes any 8 bytes, so these are what tell a
     *  garbled reply from a prediction. */
    bool
    decode(WireReader &in)
    {
        rating = in.getDouble();
        // Trailing optional field: absent in pre-resilience payloads.
        degraded = in.remaining() > 0 ? in.getBool() : false;
        return in.atEnd() && std::isfinite(rating);
    }
};

} // namespace recommend
} // namespace musuite

#endif // MUSUITE_SERVICES_RECOMMEND_PROTO_H
