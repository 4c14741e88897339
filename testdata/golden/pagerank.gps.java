// Generated by the Green-Marl → Pregel compiler from procedure "pagerank".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeDouble(Double.longBitsToDouble(f0));
    }
    public void readFields(DataInput in) throws IOException {
        f0 = Double.doubleToLongBits(in.readDouble());
    }
}

class PagerankVertexValue implements Writable {
    double pg_rank;
    double _t2;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeDouble(pg_rank);
        out.writeDouble(_t2);
    }
    public void readFields(DataInput in) throws IOException {
        pg_rank = in.readDouble();
        _t2 = in.readDouble();
    }
}

class PagerankMaster extends Master {
    int _state = 0;
    double e;
    double d;
    long max_iter;
    double diff;
    long cnt;
    double N;
    boolean _is_first1;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // master block
                    diff = 0.0;
                    cnt = 0L;
                    N = getTotalNumVertices();
                    _state = 1; break;
                }
                case 1: { // vertex-parallel state "state0"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    getGlobalObjectMap().put("N", new DoubleOverwrite(N));
                    _state = 13; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    diff = 0.0;
                    _state = 3; break;
                }
                case 3: { // vertex-parallel state "state2"
                    getGlobalObjectMap().put("_state", new IntOverwrite(3));
                    getGlobalObjectMap().put("d", new DoubleOverwrite(d));
                    getGlobalObjectMap().put("N", new DoubleOverwrite(N));
                    getGlobalObjectMap().put("_is_first1", new BooleanOverwrite(_is_first1));
                    _state = 4; return; // run vertex.compute this superstep
                }
                case 4: { // master block
                    _state = 5; break;
                }
                case 5: { // master block
                    _state = 11; break;
                }
                case 6: { // master block
                    _state = 7; break;
                }
                case 7: { // master block
                    if (getGlobalObjectMap().hasUpdates("diff_+=")) {
                        diff += getGlobalObjectMap().get("diff_+=").getValue();
                    }
                    _state = 8; break;
                }
                case 8: { // master block
                    cnt = (cnt + 1L);
                    _state = 9; break;
                }
                case 9: { // master block
                    _state = (((diff > e) && (cnt < max_iter))) ? 2 : 10; break;
                }
                case 10: { // master block
                    haltComputation(); return;
                }
                case 11: { // master block
                    _state = (_is_first1) ? 12 : 6; break;
                }
                case 12: { // master block
                    _is_first1 = false;
                    _state = 3; break;
                }
                case 13: { // master block
                    _is_first1 = true;
                    _state = 2; break;
                }
            }
        }
    }
}

class PagerankVertex extends Vertex<PagerankVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 1: { // state0
                double N = ((DoubleOverwrite) getGlobalObjectMap().get("N")).getValue();
                getValue().pg_rank = (1.0 / N);
                break;
            }
            case 3: { // state2
                double val = 0.0;
                double d = ((DoubleOverwrite) getGlobalObjectMap().get("d")).getValue();
                double N = ((DoubleOverwrite) getGlobalObjectMap().get("N")).getValue();
                boolean _is_first1 = ((BooleanOverwrite) getGlobalObjectMap().get("_is_first1")).getValue();
                if (!_is_first1) {
                    for (Message m : messages) {
                        getValue()._t2 += Double.longBitsToDouble(m.f0);
                    }
                    val = (((1.0 - d) / N) + (d * getValue()._t2));
                    getGlobalObjectMap().put("diff_+=", new Reduce(((val > getValue().pg_rank) ? (val - getValue().pg_rank) : (getValue().pg_rank - val))));
                    getValue().pg_rank = val;
                }
                getValue()._t2 = 0.0;
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = Double.doubleToLongBits((getValue().pg_rank / getNeighborsCount()));
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
        }
    }
}
