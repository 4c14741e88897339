// Generated by the Green-Marl → Pregel compiler from procedure "hits".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    byte type;
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        switch (type) {
            case 0: out.writeInt((int) f0); break;
            case 1: out.writeDouble(Double.longBitsToDouble(f0)); break;
            case 2: out.writeDouble(Double.longBitsToDouble(f0)); break;
        }
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        switch (type) {
            case 0: f0 = in.readInt(); break;
            case 1: f0 = Double.doubleToLongBits(in.readDouble()); break;
            case 2: f0 = Double.doubleToLongBits(in.readDouble()); break;
        }
    }
}

class HitsVertexValue implements Writable {
    double auth;
    double hub;
    double _t6;
    double _t7;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeDouble(auth);
        out.writeDouble(hub);
        out.writeDouble(_t6);
        out.writeDouble(_t7);
    }
    public void readFields(DataInput in) throws IOException {
        auth = in.readDouble();
        hub = in.readDouble();
        _t6 = in.readDouble();
        _t7 = in.readDouble();
    }
}

class HitsMaster extends Master {
    int _state = 0;
    long max_iter;
    long k;
    double na;
    double _r2;
    double nh;
    double _r3;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // vertex-parallel state "in_nbr_send"
                    getGlobalObjectMap().put("_state", new IntOverwrite(0));
                    _state = 1; return; // run vertex.compute this superstep
                }
                case 1: { // vertex-parallel state "in_nbr_collect"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = 3; break;
                }
                case 3: { // master block
                    _state = 4; break;
                }
                case 4: { // master block
                    k = 0L;
                    _state = 5; break;
                }
                case 5: { // master block
                    _state = ((k < max_iter)) ? 6 : 28; break;
                }
                case 6: { // vertex-parallel state "state6"
                    getGlobalObjectMap().put("_state", new IntOverwrite(6));
                    _state = 7; return; // run vertex.compute this superstep
                }
                case 7: { // master block
                    _state = 8; break;
                }
                case 8: { // vertex-parallel state "state7_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(8));
                    _state = 9; return; // run vertex.compute this superstep
                }
                case 9: { // master block
                    _state = 10; break;
                }
                case 10: { // master block
                    na = 0.0;
                    _r2 = 0.0;
                    _state = 11; break;
                }
                case 11: { // master block
                    _state = 12; break;
                }
                case 12: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r2_+=")) {
                        _r2 += getGlobalObjectMap().get("_r2_+=").getValue();
                    }
                    _state = 13; break;
                }
                case 13: { // master block
                    na = _r2;
                    _state = 14; break;
                }
                case 14: { // master block
                    _state = ((na > 0.0)) ? 15 : 16; break;
                }
                case 15: { // vertex-parallel state "state15"
                    getGlobalObjectMap().put("_state", new IntOverwrite(15));
                    getGlobalObjectMap().put("na", new DoubleOverwrite(na));
                    _state = 16; return; // run vertex.compute this superstep
                }
                case 16: { // vertex-parallel state "state16"
                    getGlobalObjectMap().put("_state", new IntOverwrite(16));
                    _state = 17; return; // run vertex.compute this superstep
                }
                case 17: { // master block
                    _state = 18; break;
                }
                case 18: { // vertex-parallel state "state17_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(18));
                    _state = 19; return; // run vertex.compute this superstep
                }
                case 19: { // master block
                    _state = 20; break;
                }
                case 20: { // master block
                    nh = 0.0;
                    _r3 = 0.0;
                    _state = 21; break;
                }
                case 21: { // master block
                    _state = 22; break;
                }
                case 22: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r3_+=")) {
                        _r3 += getGlobalObjectMap().get("_r3_+=").getValue();
                    }
                    _state = 23; break;
                }
                case 23: { // master block
                    nh = _r3;
                    _state = 24; break;
                }
                case 24: { // master block
                    _state = ((nh > 0.0)) ? 25 : 26; break;
                }
                case 25: { // vertex-parallel state "state25"
                    getGlobalObjectMap().put("_state", new IntOverwrite(25));
                    getGlobalObjectMap().put("nh", new DoubleOverwrite(nh));
                    _state = 26; return; // run vertex.compute this superstep
                }
                case 26: { // master block
                    k = (k + 1L);
                    _state = 27; break;
                }
                case 27: { // master block
                    _state = 5; break;
                }
                case 28: { // master block
                    haltComputation(); return;
                }
            }
        }
    }
}

class HitsVertex extends Vertex<HitsVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 0: { // in_nbr_send
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = getId();
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                getValue().in_nbrs = collectSenderIds(messages);
                getValue().auth = 1.0;
                getValue().hub = 1.0;
                break;
            }
            case 6: { // state6
                getValue()._t6 = 0.0;
                for (int e = 0; e < getNeighborsCount(); e++) {
                    Message m = new Message();
                    m.f0 = Double.doubleToLongBits(getValue().hub);
                    sendMessage(getNeighborId(e), m);
                }
                break;
            }
            case 8: { // state7_recv
                for (Message m : messages) {
                    if (m.type == 1) {
                        getValue()._t6 += Double.longBitsToDouble(m.f0);
                    }
                }
                getValue().auth = getValue()._t6;
                getGlobalObjectMap().put("_r2_+=", new Reduce(getValue().auth));
                break;
            }
            case 15: { // state15
                double na = ((DoubleOverwrite) getGlobalObjectMap().get("na")).getValue();
                getValue().auth = (getValue().auth / na);
                break;
            }
            case 16: { // state16
                getValue()._t7 = 0.0;
                for (int i = 0; i < getValue().in_nbrs.length; i++) {
                    Message m = new Message();
                    m.f0 = Double.doubleToLongBits(getValue().auth);
                    sendMessage(getValue().in_nbrs[i], m);
                }
                break;
            }
            case 18: { // state17_recv
                for (Message m : messages) {
                    if (m.type == 2) {
                        getValue()._t7 += Double.longBitsToDouble(m.f0);
                    }
                }
                getValue().hub = getValue()._t7;
                getGlobalObjectMap().put("_r3_+=", new Reduce(getValue().hub));
                break;
            }
            case 25: { // state25
                double nh = ((DoubleOverwrite) getGlobalObjectMap().get("nh")).getValue();
                getValue().hub = (getValue().hub / nh);
                break;
            }
        }
    }
}
