// Generated by the Green-Marl → Pregel compiler from procedure "wcc".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class WccComputation extends BasicComputation<IntWritable, WccValue, NullWritable, WccMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, WccValue, NullWritable> vertex, Iterable<WccMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 0: { // in_nbr_send
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    WccMessage m = new WccMessage();
                    m.f0 = vertex.getId().get();
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                vertex.getValue().in_nbrs = collectSenderIds(messages);
                vertex.getValue().comp = vertex.getId().get();
                vertex.getValue().comp_nxt = vertex.getId().get();
                break;
            }
            case 5: { // state5
                boolean _is_first1 = ((BooleanWritable) getAggregatedValue("_is_first1")).get();
                if (!_is_first1) {
                    for (WccMessage m : messages) {
                        if (m.type == 1) {
                            vertex.getValue().comp_nxt = Math.min(vertex.getValue().comp_nxt, m.f0);
                        }
                    }
                    for (WccMessage m : messages) {
                        if (m.type == 2) {
                            vertex.getValue().comp_nxt = Math.min(vertex.getValue().comp_nxt, m.f0);
                        }
                    }
                    if ((vertex.getValue().comp_nxt < vertex.getValue().comp)) {
                        vertex.getValue().comp = vertex.getValue().comp_nxt;
                        aggregate("fin_&=", new BooleanWritable(false));
                    }
                }
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    WccMessage m = new WccMessage();
                    m.f0 = vertex.getValue().comp;
                    sendMessage(e.getTargetVertexId(), m);
                }
                for (int i = 0; i < vertex.getValue().in_nbrs.length; i++) {
                    WccMessage m = new WccMessage();
                    m.f0 = vertex.getValue().comp;
                    sendMessage(new IntWritable(vertex.getValue().in_nbrs[i]), m);
                }
                break;
            }
        }
    }
}

public class WccMaster extends DefaultMasterCompute {
    int _state = 0;
    boolean fin;
    boolean _is_first1;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("fin", BooleanOverwriteAggregator.class);
        registerPersistentAggregator("_is_first1", BooleanOverwriteAggregator.class);
        registerAggregator("fin_&=", BooleanAndAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: { // vertex state "in_nbr_send"
                    setAggregatedValue("_state", new IntWritable(0));
                    _state = 1; return;
                }
                case 1: { // vertex state "in_nbr_collect"
                    setAggregatedValue("_state", new IntWritable(1));
                    _state = 2; return;
                }
                case 2: {
                    _state = 3; break;
                }
                case 3: {
                    fin = false;
                    _state = 14; break;
                }
                case 4: {
                    _state = (!fin) ? 5 : 11; break;
                }
                case 5: { // vertex state "state5"
                    setAggregatedValue("_state", new IntWritable(5));
                    setAggregatedValue("_is_first1", new BooleanWritable(_is_first1));
                    _state = 6; return;
                }
                case 6: {
                    _state = 12; break;
                }
                case 7: {
                    fin = true;
                    _state = 8; break;
                }
                case 8: {
                    _state = 9; break;
                }
                case 9: {
                    fin = ((BooleanWritable) getAggregatedValue("fin_&=")).get();
                    _state = 10; break;
                }
                case 10: {
                    _state = 4; break;
                }
                case 11: {
                    haltComputation(); return;
                }
                case 12: {
                    _state = (_is_first1) ? 13 : 7; break;
                }
                case 13: {
                    _is_first1 = false;
                    _state = 5; break;
                }
                case 14: {
                    _is_first1 = true;
                    _state = 4; break;
                }
            }
        }
    }
}

public class WccValue implements Writable {
    public long comp;
    public long comp_nxt;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeLong(comp);
        out.writeLong(comp_nxt);
    }
    public void readFields(DataInput in) throws IOException {
        comp = in.readLong();
        comp_nxt = in.readLong();
    }
}

public class WccMessage implements Writable {
    public byte type;
    public long f0;
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        f0 = in.readLong();
    }
}
